import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.cli import write_sls_csv, write_travel_csv
from scatterlab.geometry import _as_tuple
from scatterlab.spectra import impact_lattice, plane_basis, unit_vector
from oracles import blocked_pair, circle_pair, disk_itinerary_roots, fermat_circle_times


# ---------------------------------------------------------------------------
# Sojourn times
# ---------------------------------------------------------------------------

def test_sojourn_free_ray_vanishes(empty_scene):
    rec = sl.trace(empty_scene, sl.PhaseState((-10.0, 3.7), (1.0, 0.0)))
    assert abs(sl.sojourn_time(empty_scene, rec, (1.0, 0.0), (1.0, 0.0))) < 1e-9


def test_sojourn_backscatter(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t = sl.sojourn_time(disk_scene, rec, (1.0, 0.0), (-1.0, 0.0))
    assert t == pytest.approx(-2.0, abs=1e-9)


def test_sojourn_90_degree_single_bounce(disk_scene):
    # One reflection at 45 degree incidence: the reflection point sits at
    # (-s, s) with s = sqrt(2)/2, both clipped legs have length a - s, so
    # the sojourn time equals -sqrt(2). Hand-derived leg lengths.
    s = math.sqrt(2) / 2
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, s), (1.0, 0.0)))
    assert np.allclose(rec.final.direction, (0.0, 1.0), atol=1e-12)
    t = sl.sojourn_time(disk_scene, rec, (1.0, 0.0), rec.final.direction)
    assert t == pytest.approx(-math.sqrt(2), abs=1e-9)


def test_sojourn_ball_independence(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t1 = sl.sojourn_time(disk_scene, rec, (1.0, 0.0), (-1.0, 0.0))
    bigger = dataclasses.replace(disk_scene, ball_radius=20.0)
    rec2 = sl.trace(bigger, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t2 = sl.sojourn_time(bigger, rec2, (1.0, 0.0), (-1.0, 0.0))
    assert abs(t1 - t2) < 1e-9


def test_sojourn_direction_contract(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    with pytest.raises(sl.ContractError):
        sl.sojourn_time(disk_scene, rec, (0.0, 1.0), (-1.0, 0.0))
    with pytest.raises(sl.ContractError):
        sl.sojourn_time(disk_scene, rec, (1.0, 0.0), (1.0, 0.0))


def test_sojourn_refuses_directions_of_another_dimension(disk_scene, ball_ellipsoid_scene):
    flat = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    with pytest.raises(sl.ContractError, match="3-d and 2-d directions for a 2-d record"):
        sl.sojourn_time(disk_scene, flat, (1.0, 0.0, 0.0), (-1.0, 0.0))
    with pytest.raises(sl.ContractError, match="2-d and 1-d directions for a 2-d record"):
        sl.sojourn_time(disk_scene, flat, (1.0, 0.0), (-1.0,))
    solid = sl.trace(ball_ellipsoid_scene, sl.PhaseState((0.0, 0.0, -10.0), (0.0, 0.0, 1.0)))
    assert sl.sojourn_time(ball_ellipsoid_scene, solid, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == 0.0
    with pytest.raises(sl.ContractError, match="2-d and 3-d directions for a 3-d record"):
        sl.sojourn_time(ball_ellipsoid_scene, solid, (0.0, 1.0), (0.0, 0.0, 1.0))
    with pytest.raises(sl.ContractError, match="3-d and 4-d directions for a 3-d record"):
        sl.sojourn_time(ball_ellipsoid_scene, solid, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0))


def test_sojourn_requires_escape(two_disk_scene):
    rec = sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.0), (1.0, 0.0)),
                   sl.TraceLimits(max_reflections=10))
    with pytest.raises(sl.ContractError):
        sl.sojourn_time(two_disk_scene, rec, (1.0, 0.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# Sojourn-time scans
# ---------------------------------------------------------------------------

def test_scan_empty_scene(empty_scene):
    table = sl.scan_sls(empty_scene, (1.0, 0.0), 64)
    assert len(table.samples) == 64
    for s in table.samples:
        assert np.allclose(s.theta, (1.0, 0.0))
        assert abs(s.sojourn) < 1e-9
        assert s.reflections == 0


def test_scan_single_disk_axis_impact(disk_scene):
    # Odd grid size puts one lattice point exactly on the axis.
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 129)
    axis = [s for s in table.samples if abs(s.impact[0]) < 1e-9]
    assert len(axis) == 1
    assert np.allclose(axis[0].theta, (-1.0, 0.0), atol=1e-12)
    assert axis[0].sojourn == pytest.approx(-2.0, abs=1e-9)


def test_scan_two_disk_axis_backscatters(two_disk_scene):
    # The exterior axis ray turns around at the near disk: it escapes and
    # contributes a sample; nothing enters the bouncing orbit from outside.
    table = sl.scan_sls(two_disk_scene, (1.0, 0.0), 129)
    assert table.diagnostics_dict()["cutoff"] == 0
    axis = [s for s in table.samples if abs(s.impact[0]) < 1e-9]
    assert len(axis) == 1
    assert np.allclose(axis[0].theta, (-1.0, 0.0), atol=1e-12)
    # Front face at distance 4 from the ball center: T = 2(a - 4) - 2a = -8.
    assert axis[0].sojourn == pytest.approx(-8.0, abs=1e-9)


def test_scan_row_budget(disk_scene):
    table = sl.scan_sls(disk_scene, (0.0, 1.0), 512)
    assert len(table.samples) <= 512
    assert len(table.cells) == 512


def test_scan_requires_unit_direction(disk_scene):
    with pytest.raises(sl.ContractError):
        sl.scan_sls(disk_scene, (1.0, 1.0), 8)


def test_scan_marks_grazing(disk_scene):
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 4096)
    grazing = [s for s in table.samples if s.grazing]
    clean = [s for s in table.samples if not s.grazing]
    assert len(clean) > 4000
    # Tangency is codimension one: at most a couple of lattice points.
    assert len(grazing) <= 4


# ---------------------------------------------------------------------------
# Travelling times
# ---------------------------------------------------------------------------

def test_travel_empty_antipodal(empty_scene):
    samples = sl.find_xy_geodesics(empty_scene, (-10.0, 0.0), (10.0, 0.0))
    assert len(samples) == 1
    assert samples[0].t == pytest.approx(20.0, abs=1e-6)
    assert samples[0].reflections == 0


def test_travel_empty_right_angle(empty_scene):
    samples = sl.find_xy_geodesics(empty_scene, (-10.0, 0.0), (0.0, 10.0))
    assert len(samples) == 1
    assert samples[0].t == pytest.approx(10.0 * math.sqrt(2), abs=1e-6)


def test_travel_blocked_pair_is_empty(disk_scene):
    # A single convex obstacle casts an absolute shadow: reflected rays never
    # enter the cone behind it, so a blocked pair has no geodesics at all.
    # The Fermat oracle agrees: no valid interior stationary configuration.
    x, y = (-10.0, 0.0), (10.0, 0.0)
    assert blocked_pair((0.0, 0.0), 1.0, x, y)
    samples = sl.find_xy_geodesics(disk_scene, x, y)
    assert samples == []
    assert len(fermat_circle_times((0.0, 0.0), 1.0, x, y, n=200_000)) == 0


def test_travel_unblocked_pair_chord_and_bounce(disk_scene):
    x, y = circle_pair(10.0, math.pi, 2.0)
    assert not blocked_pair((0.0, 0.0), 1.0, x, y)
    samples = sl.find_xy_geodesics(disk_scene, x, y)
    times = sorted(s.t for s in samples)
    assert times[0] == pytest.approx(math.dist(x, y), abs=1e-6)
    one = [s for s in samples if s.reflections == 1]
    assert len(one) == 1
    oracle = fermat_circle_times((0.0, 0.0), 1.0, x, y)
    assert len(oracle) == 1
    assert one[0].t == pytest.approx(oracle[0], abs=1e-6)


def test_travel_fermat_consistency_many_pairs(disk_scene):
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(30):
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        x, y = circle_pair(10.0, a1, a2)
        if math.dist(x, y) < 1.0:
            continue
        samples = [s for s in sl.find_xy_geodesics(disk_scene, x, y)
                   if s.reflections == 1]
        oracle = fermat_circle_times((0.0, 0.0), 1.0, x, y, n=400_000)
        assert len(samples) == len(oracle)
        for s, t_ref in zip(sorted(s.t for s in samples), oracle):
            checked += 1
            assert s == pytest.approx(t_ref, abs=1e-6)
    assert checked >= 10


def test_travel_triangle_bound(two_disk_scene):
    rng = np.random.default_rng(6)
    for _ in range(10):
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        x, y = circle_pair(10.0, a1, a2)
        if math.dist(x, y) < 0.5:
            continue
        for s in sl.find_xy_geodesics(two_disk_scene, x, y):
            assert s.t >= math.dist(x, y) - 1e-9


def test_travel_reciprocity(two_disk_scene):
    rng = np.random.default_rng(15)
    total = 0
    for _ in range(8):
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        x, y = circle_pair(10.0, a1, a2)
        if math.dist(x, y) < 0.5:
            continue
        fwd = sl.find_xy_geodesics(two_disk_scene, x, y)
        rev = sl.find_xy_geodesics(two_disk_scene, y, x)
        for s in fwd:
            total += 1
            assert min((abs(s.t - r.t) for r in rev), default=math.inf) < 1e-6
    assert total > 10


def test_travel_endpoint_directions_consistent(two_disk_scene):
    x, y = circle_pair(10.0, math.pi, 1.1)
    for s in sl.find_xy_geodesics(two_disk_scene, x, y):
        rec = sl.trace(two_disk_scene, sl.PhaseState(s.x, s.dir_in))
        assert rec.escaped
        first = rec.events[0].point if rec.events else rec.final.point
        d_in = np.asarray(first) - np.asarray(s.x)
        d_in /= np.linalg.norm(d_in)
        assert np.max(np.abs(d_in - np.asarray(s.dir_in))) < 1e-9
        assert np.max(np.abs(np.asarray(rec.final.direction)
                             - np.asarray(s.dir_out))) < 1e-9
        assert s.residual < 1e-6


def test_travel_residual_and_sphere_invariants(two_disk_scene):
    x, y = circle_pair(10.0, 0.3, 2.4)
    for s in sl.find_xy_geodesics(two_disk_scene, x, y):
        assert abs(math.hypot(*s.x) - 10.0) < 1e-9
        assert abs(math.hypot(*s.y) - 10.0) < 1e-9
        assert s.t >= math.dist(s.x, s.y) - 1e-9


def test_spectrum_determinism(two_disk_scene):
    t1 = sl.travelling_time_spectrum(two_disk_scene, n_points=12)
    t2 = sl.travelling_time_spectrum(two_disk_scene, n_points=12)
    assert t1.cells == t2.cells
    assert t1.grid == t2.grid


def test_spectrum_threaded_matches_serial(two_disk_scene):
    # Each pool worker solves its share of the table's words in one batch,
    # so the batches differ from the serial one; no result may change.
    serial = sl.travelling_time_spectrum(two_disk_scene, n_points=8)
    pooled = sl.travelling_time_spectrum(two_disk_scene, n_points=8, threads=2)
    assert serial.diagnostics_dict()["newton_steps"] > 0
    assert serial.cells == pooled.cells
    assert serial.samples == pooled.samples
    assert serial.diagnostics == pooled.diagnostics


def test_spectrum_empty_scene_chords(empty_scene):
    table = sl.travelling_time_spectrum(empty_scene, n_points=12)
    pairs = sl.spectra.spectrum_pairs(empty_scene, 12)
    assert len(table.cells) == len(pairs)
    for cell, (x, y) in zip(table.cells, pairs):
        assert len(cell) == 1
        assert cell[0] == pytest.approx(float(np.linalg.norm(x - y)), abs=1e-6)


def test_spectrum_single_disk_contains_chord(disk_scene):
    table = sl.travelling_time_spectrum(disk_scene, n_points=12)
    pairs = sl.spectra.spectrum_pairs(disk_scene, 12)
    for cell, (x, y) in zip(table.cells, pairs):
        if not blocked_pair((0.0, 0.0), 1.0, x, y):
            chord = float(np.linalg.norm(x - y))
            assert any(abs(t - chord) < 1e-6 for t in cell)


def test_scan_ball_independence_per_sample(disk_scene, two_disk_scene):
    # Recomputing each sample's sojourn under a larger reference ball must
    # leave it unchanged: the trajectory is the same and the definition does
    # not depend on the ball. In the oblique two-disk scan some launch points
    # lie beyond the outgoing tangent hyperplane of the radius-10 ball, and
    # some last legs cross the incoming one before the outgoing one.
    omega = (math.cos(0.7), math.sin(0.7))
    for scene, w, n in ((disk_scene, (1.0, 0.0), 65), (two_disk_scene, omega, 512)):
        table = sl.scan_sls(scene, w, n)
        assert len(table.samples) > n // 2
        for radius in (12.0, 20.0, 40.0):
            bigger = dataclasses.replace(scene, ball_radius=radius)
            for s in table.samples:
                rec = sl.trace(bigger, sl.PhaseState(s.impact_point, s.omega))
                t2 = sl.sojourn_time(bigger, rec, s.omega, rec.final.direction)
                assert abs(t2 - s.sojourn) < 1e-9


@pytest.mark.parametrize("scene_name, omega", [
    ("two_disk_scene", (math.cos(0.7), math.sin(0.7))),
    ("ball_ellipsoid_scene", (0.0, 0.6, 0.8)),
])
def test_scan_launches_match_one_at_a_time(request, scene_name, omega):
    scene = request.getfixturevalue(scene_name)
    table = sl.scan_sls(scene, omega, 300)
    win = unit_vector(omega)
    basis = plane_basis(win)
    offsets = impact_lattice(scene.dimension, 300, scene.ball_radius)
    foot = np.asarray(scene.ball_center) - scene.ball_radius * win
    assert len(table.samples) > 150
    for s in table.samples:
        assert s.impact == _as_tuple(offsets[s.index])
        assert s.impact_point == _as_tuple(foot + offsets[s.index] @ basis)
        assert all(type(c) is float for c in s.impact_point + s.theta)


@pytest.mark.parametrize("scene_name, omega", [
    ("three_disk_scene", (math.cos(2.1), math.sin(2.1))),
    ("three_disk_scene", (1.0, 0.0)),
    ("livshits_bump", (0.0, -1.0)),
    ("ball_ellipsoid_scene", (0.0, 0.6, 0.8)),
])
def test_scan_matches_one_at_a_time(request, scene_name, omega):
    # The reference traces every launch alone, through trace.
    if scene_name == "livshits_bump":
        scene = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    else:
        scene = request.getfixturevalue(scene_name)
    table = sl.scan_sls(scene, omega, 400)
    c = np.asarray(scene.ball_center)
    win = unit_vector(omega)
    samples = iter(table.samples)
    for k, launch in enumerate(_launches(scene, win, 400)):
        rec = sl.trace(scene, sl.PhaseState(launch, win))
        if not rec.escaped:
            assert table.cells[k] == ()
            continue
        s = next(samples)
        assert s.index == k
        assert s.itinerary == sl.itinerary(rec)
        assert s.grazing == (rec.grazings > 0)
        want = 0.0
        if rec.events:
            last = rec.events[-1]
            want = (last.path_length + (launch - c) @ win
                    - (np.asarray(last.point) - c) @ rec.final.direction)
        assert abs(s.sojourn - want) <= 1e-10
        assert table.cells[k] == (s.sojourn,)
    assert next(samples, None) is None
    assert table.diagnostics_dict()["cutoff"] == 400 - len(table.samples)


def _launches(scene, win, n):
    basis = plane_basis(win)
    offsets = impact_lattice(scene.dimension, n, scene.ball_radius)
    foot = np.asarray(scene.ball_center) - scene.ball_radius * win
    return [foot + o @ basis for o in offsets]


def test_table_metadata(disk_scene):
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 32)
    assert table.scene_digest == disk_scene.digest
    assert all(0 <= s.index < 32 for s in table.samples)
    travel = sl.travelling_time_spectrum(disk_scene, n_points=8)
    assert travel.scene_digest == disk_scene.digest
    assert all(0 <= s.pair < len(travel.cells) for s in travel.samples)


_FIELDS = {
    "sls": ("index", "omega", "impact", "impact_point", "theta", "sojourn", "reflections",
            "grazing", "itinerary"),
    "travel": ("pair", "x", "y", "t", "reflections", "dir_in", "dir_out", "residual",
               "itinerary"),
}
# The field behind each column group of a CSV: the sls columns follow the
# field order, and the travel columns keep the residual and the word ahead of
# the directions.
_CSV_FIELDS = {
    "sls": ["omega", "impact", "theta", "sojourn", "reflections", "grazing", "itinerary"],
    "travel": ["x", "y", "t", "reflections", "residual", "itinerary", "dir_in", "dir_out"],
}


@pytest.mark.parametrize("kind", ["sls", "travel"])
def test_samples_are_immutable_records(disk_scene, tmp_path, kind):
    if kind == "sls":
        table, write = sl.scan_sls(disk_scene, (1.0, 0.0), 16), write_sls_csv
    else:
        table, write = sl.travelling_time_spectrum(disk_scene, n_points=6), write_travel_csv
    fields = _FIELDS[kind]
    sample = max(table.samples, key=lambda s: s.reflections)
    assert type(sample)._fields == fields
    assert len(sample) == 9 and sample == tuple(getattr(sample, f) for f in fields)
    back = pickle.loads(pickle.dumps(sample))
    assert back == sample and type(back) is type(sample)
    changed = sample._replace(reflections=7)
    assert type(changed) is type(sample)
    assert changed == tuple(7 if f == "reflections" else getattr(sample, f) for f in fields)
    with pytest.raises(AttributeError):
        sample.reflections = 7
    write(table, tmp_path / "t.csv", 17)
    header = (tmp_path / "t.csv").read_text().split("\n")[0].split(",")
    stems = dict.fromkeys(h.rsplit("_", 1)[0] if h[-1].isdigit() else h for h in header)
    assert [{"T": "sojourn"}.get(h, h) for h in stems] == _CSV_FIELDS[kind]
    assert set(_CSV_FIELDS[kind]) < set(fields)


def test_grid_mismatch_raises(empty_scene):
    t1 = sl.travelling_time_spectrum(empty_scene, n_points=8)
    t2 = sl.travelling_time_spectrum(empty_scene, n_points=10)
    with pytest.raises(sl.ContractError):
        sl.compare_spectra(t1, t2, tol=1e-9)


@pytest.mark.parametrize("n_impacts", [0, -1])
def test_scan_sls_refuses_no_impacts(disk_scene, n_impacts):
    with pytest.raises(sl.ContractError):
        sl.scan_sls(disk_scene, (1.0, 0.0), n_impacts)


@pytest.mark.parametrize("grid", [{"n_points": 1}, {"n_points": 0},
                                  {"n_points": 2, "min_sep_deg": 180.0}])
def test_travel_grid_without_pairs_is_refused(disk_scene, grid):
    with pytest.raises(sl.ContractError, match="no point pairs"):
        sl.travelling_time_spectrum(disk_scene, **grid)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_travel_grid_refuses_a_non_finite_phase(disk_scene, phase):
    with pytest.raises(sl.ContractError, match="lattice phase must be finite"):
        sl.travelling_time_spectrum(disk_scene, n_points=4, phase=phase)
    with pytest.raises(sl.ContractError, match="lattice phase must be finite"):
        sl.spectra.spectrum_pairs(disk_scene, 4, phase=phase)


@pytest.mark.parametrize("omega", [(math.nan, 1.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_scan_sls_rejects_non_finite_direction(disk_scene, omega):
    with pytest.raises(sl.ContractError, match="finite unit vector"):
        sl.scan_sls(disk_scene, omega, 4)


@pytest.mark.parametrize("scene, omega, message", [
    ("disk_scene", (0.0, 0.0, 1.0), "a 3-d direction for a 2-d scene"),
    ("ball_ellipsoid_scene", (0.0, 1.0), "a 2-d direction for a 3-d scene"),
    ("ball_ellipsoid_scene", (0.0, 0.0, 0.0, 1.0), "a 4-d direction for a 3-d scene")])
def test_scan_sls_refuses_a_direction_of_another_dimension(request, scene, omega, message):
    with pytest.raises(sl.ContractError, match=message):
        sl.scan_sls(request.getfixturevalue(scene), omega, 4)


@pytest.mark.parametrize("x, y", [((math.nan, 0.0), (10.0, 0.0)),
                                  ((-10.0, 0.0), (0.0, math.inf))],
                         ids=["nan-x", "inf-y"])
def test_find_xy_geodesics_rejects_non_finite_endpoints(disk_scene, x, y):
    with pytest.raises(sl.ContractError, match="finite"):
        sl.find_xy_geodesics(disk_scene, x, y)


@pytest.mark.parametrize("x", [(0.5, 0.0), (5.0, 0.0), (20.0, 0.0)],
                         ids=["in-obstacle", "in-ball", "outside-ball"])
def test_find_xy_geodesics_rejects_endpoints_off_the_sphere(disk_scene, x):
    with pytest.raises(sl.ContractError, match="reference sphere"):
        sl.find_xy_geodesics(disk_scene, x, (0.0, 10.0))
    with pytest.raises(sl.ContractError, match="reference sphere"):
        sl.find_xy_geodesics(disk_scene, (0.0, 10.0), x)


def test_find_xy_geodesics_keeps_the_backscatter_root_of_equal_endpoints(two_disk_scene):
    # x = y: the pair is merged from its first index, so the ray that leaves
    # (10, 0), meets the disk at (4, 0) head on and comes back stays.
    (root,) = sl.find_xy_geodesics(two_disk_scene, (10.0, 0.0), (10.0, 0.0))
    assert root.itinerary == (1,) and abs(root.t - 12.0) < 1e-12
    assert root.x == root.y == (10.0, 0.0) and root.pair == 0


@pytest.mark.parametrize("depth", [-3, 1.5, True])
def test_travel_refuses_a_bad_depth(disk_scene, depth):
    with pytest.raises(sl.ContractError, match="depth must be an integer >= 0"):
        sl.find_xy_geodesics(disk_scene, (-10.0, 0.0), (0.0, 10.0), depth=depth)
    with pytest.raises(sl.ContractError, match="depth must be an integer >= 0"):
        sl.travelling_time_spectrum(disk_scene, n_points=4, depth=depth)


def test_spectrum_2d_matches_per_pair_search(two_disk_scene):
    # The plane twin of the d = 3 check: a table cell and its samples are
    # exactly what the two-point search gives for that pair.
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=6, depth=4)
    pairs = sl.spectra.spectrum_pairs(two_disk_scene, 6)
    assert len(table.cells) == len(pairs) == 30
    assert any(table.cells)
    for k, (x, y) in enumerate(pairs):
        alone = sl.find_xy_geodesics(two_disk_scene, x, y, depth=4)
        assert table.cells[k] == tuple(sorted(s.t for s in alone))
        assert [s for s in table.samples if s.pair == k] == [
            s._replace(pair=k) for s in alone]


def test_dropped_words_by_reason(three_disk_scene, two_disk_scene, empty_scene):
    # Every word that gives no root has a reason, and the reasons sum to
    # dropped_clusters. Two disks seen from a lattice point on their line of
    # centres put a body's anchors opposite about its centre, so some words
    # get no start. An empty scene drops nothing: its roots are the free
    # chords, solved in no Newton step.
    reasons = sl.spectra._DROP_REASONS
    diag = sl.travelling_time_spectrum(three_disk_scene, n_points=8).diagnostics_dict()
    assert diag["dropped_clusters"] > 0 and diag["newton_steps"] > 0
    assert sum(diag[r] for r in reasons) == diag["dropped_clusters"]
    assert all(diag[r] > 0 for r in ("dropped_blocked", "dropped_inward"))
    diag = sl.travelling_time_spectrum(two_disk_scene, n_points=8).diagnostics_dict()
    assert diag["dropped_start"] > 0
    assert sum(diag[r] for r in reasons) == diag["dropped_clusters"]
    diag = sl.travelling_time_spectrum(empty_scene, n_points=4).diagnostics_dict()
    assert all(diag[r] == 0 for r in reasons + ("dropped_clusters", "newton_steps",
                                                "cutoff_seeds"))


@pytest.mark.parametrize("scene_name, depth", [("three_disk_scene", 4),
                                               ("ball_ellipsoid_scene", 3)])
def test_a_table_solves_every_admissible_word_once(scene_name, depth, request, monkeypatch):
    # Each unordered pair is solved once, from its lesser point, on every
    # word of length 0 to depth with no body twice in a row: k (k - 1)^(m - 1)
    # words of length m for k bodies. A word without a finite start ends
    # there, counted as dropped_start.
    scene = request.getfixturevalue(scene_name)
    args, got = _table_words_and_solves(scene, monkeypatch, n_points=6, depth=depth)
    words = args[3]
    ids = words.obstacles.tolist()
    solved = Counter(tuple(ids[f:f + k]) for f, k in zip(_firsts(words), words.count.tolist()))
    diag = sl.travelling_time_spectrum(scene, n_points=6, depth=depth).diagnostics_dict()
    k = len(scene.bodies)
    pairs = len(sl.spectra.spectrum_pairs(scene, 6)) // 2
    admissible = [w for m in range(depth + 1) for w in itertools.product(range(k), repeat=m)
                  if all(a != b for a, b in zip(w, w[1:]))]
    assert len(admissible) == 1 + sum(k * (k - 1) ** (m - 1) for m in range(1, depth + 1))
    assert set(solved) == set(admissible)
    assert all(n == pairs for n in solved.values())
    assert got[5].count("dropped_start") == diag["dropped_start"]


def _firsts(words):
    """The place in words.obstacles of each word's first body."""
    return (np.cumsum(words.count) - words.count).tolist()


def _starts_by_word(scene, xs, ys, depth, hi, monkeypatch):
    """The starts of the first hi words of the pairs (xs, ys) as points, by
    (pair, word), for the words with a finite start: re-aimed, as _starts
    returns them, and before the re-aim, as _starts writes them into path;
    and the number of words without a finite start."""
    spectra = sl.spectra
    pair, words = spectra._run_words(scene, depth, 0, hi)
    layout, starts = spectra._layout, spectra._starts
    layouts, points = [], []

    def recording_layout(*args):
        layouts.append(layout(*args))
        return layouts[-1]

    def recording_starts(centre, rd, path, *args):
        s = starts(centre, rd, path, *args)
        points.append((centre + spectra._mat_vec(rd, s), path[:, :centre.shape[1]].copy()))
        return s

    with monkeypatch.context() as m:
        m.setattr(spectra, "_layout", recording_layout)
        m.setattr(spectra, "_starts", recording_starts)
        reason = spectra._solve_words(scene, xs[pair], ys[pair], words)[5]
    point = layouts[0][1]
    ids, found = words.obstacles.tolist(), []
    for q in points[0]:
        by_point = np.empty((len(ids), scene.dimension))
        by_point[point] = q.T
        found.append({(p, tuple(ids[f:f + k])): by_point[f:f + k]
                      for p, f, k in zip(pair.tolist(), _firsts(words), words.count.tolist())
                      if np.isfinite(by_point[f:f + k]).all()})
    return (*found, reason.count("dropped_start"))


def test_one_bounce_words_start_on_the_bisector(three_disk_scene, monkeypatch):
    # A one-bounce word starts where the body's outward normal bisects the
    # directions from its centre to x and y; a middle point of a longer word
    # takes the neighbouring bodies' centres as its anchors, before the
    # starts are re-aimed.
    x, y = np.array([[10.0, 0.0]]), np.array([[0.0, 10.0]])
    _, starts, unstarted = _starts_by_word(three_disk_scene, x, y, 3, 22, monkeypatch)
    assert unstarted == 0 and len(starts) == 22 and {p for p, _ in starts} == {0}
    for (_, word), points in starts.items():
        anchors = [x[0]] + [np.asarray(three_disk_scene.bodies[b].center) for b in word] + [y[0]]
        for i, b in enumerate(word):
            want = _bisector_point(three_disk_scene.bodies[b], anchors[i], anchors[i + 2])
            assert np.allclose(points[i], want, rtol=0.0, atol=1e-14)


def _collinear_disks():
    """Disks of radius 1, 0.5 and 1 centred at (-4, 0), (0, 0) and (4, 0)."""
    return sl.Scene(dimension=2, bodies=(sl.ball((-4.0, 0.0), 1.0), sl.ball((0.0, 0.0), 0.5),
                                         sl.ball((4.0, 0.0), 1.0)), ball_radius=10.0)


def test_a_point_between_opposite_anchors_starts_from_its_neighbours(monkeypatch):
    # On three disks in a row, the middle point of (0, 1, 2) has the outer
    # centres as anchors, opposite about its centre, so it takes the first
    # point's start as its first anchor instead. With x and y on the line of
    # centres every point of (0, 1, 2) has its anchors opposite, and so does
    # the one point of (1,): neither word has a start. The starts are read
    # before they are re-aimed.
    scene = _collinear_disks()
    xs, ys = np.array([[-6.0, 8.0], [-10.0, 0.0]]), np.array([[6.0, 8.0], [10.0, 0.0]])
    _, starts, unstarted = _starts_by_word(scene, xs, ys, 3, 44, monkeypatch)
    q0, q1, _ = starts[(0, (0, 1, 2))]
    u = (q0 - (0.0, 0.0)) / np.linalg.norm(q0) + np.array([1.0, 0.0])
    assert np.allclose(q1, 0.5 * u / np.linalg.norm(u), rtol=0.0, atol=1e-15)
    assert q1[1] > 0.0
    assert (1, (0, 1, 2)) not in starts and (1, (1,)) not in starts
    assert (0, (1,)) in starts and unstarted + len(starts) == 44


def _bisector_point(body, before, after):
    """The point of a disk where its outward normal bisects the directions
    from its centre to before and to after."""
    c = np.asarray(body.center)
    u, v = before - c, after - c
    n = u / np.linalg.norm(u) + v / np.linalg.norm(v)
    return c + body.semiaxes[0] * n / np.linalg.norm(n)


def test_starts_are_reaimed_at_their_neighbours(three_disk_scene, monkeypatch):
    # After the bisector rule, each start is re-aimed once: the rule again,
    # with x or the previous point's start and the next point's start or y
    # as its anchors, all points at once from the starts before the re-aim.
    # A one-bounce word's anchors stay x and y, so its start does not move.
    xs, ys = np.array([[10.0, 0.0], [0.0, -10.0]]), np.array([[0.0, 10.0], [-10.0, 0.0]])
    aimed, unaimed, _ = _starts_by_word(three_disk_scene, xs, ys, 3, 44, monkeypatch)
    assert len(aimed) == 44 and aimed.keys() == unaimed.keys()
    moved = 0
    for (p, word), points in aimed.items():
        if not word:
            continue
        anchors = [xs[p], *unaimed[(p, word)], ys[p]]
        for i, b in enumerate(word):
            want = _bisector_point(three_disk_scene.bodies[b], anchors[i], anchors[i + 2])
            assert np.allclose(points[i], want, rtol=0.0, atol=1e-14)
        if len(word) == 1:
            assert np.array_equal(points, unaimed[(p, word)])
        moved += np.abs(points - unaimed[(p, word)]).max() > 1e-3
    assert moved > 10


def test_a_point_whose_reaimed_start_is_not_finite_keeps_its_start(monkeypatch):
    # From x = (-6, 8) to y = (6, -8), symmetric about the middle disk's
    # centre, the first and last starts of (0, 1, 2) lie opposite about that
    # centre, so re-aiming the middle point gives no finite start: it keeps
    # the one it had, taken from the first point's start as its first anchor.
    # The first and last points are re-aimed.
    scene = _collinear_disks()
    xs, ys = np.array([[-6.0, 8.0]]), np.array([[6.0, -8.0]])
    aimed, unaimed, _ = _starts_by_word(scene, xs, ys, 3, 22, monkeypatch)
    q0, q1, q2 = aimed[(0, (0, 1, 2))]
    p0, p1, p2 = unaimed[(0, (0, 1, 2))]
    assert np.array_equal(p2, -p0)
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(_bisector_point(scene.bodies[1], p0, p2)).any()
    assert np.array_equal(q1, p1) and np.isfinite(q1).all()
    assert np.array_equal(q1, _bisector_point(scene.bodies[1], p0, np.array([4.0, 0.0])))
    assert np.allclose(q0, _bisector_point(scene.bodies[0], xs[0], p1), rtol=0.0, atol=1e-14)
    assert np.allclose(q2, _bisector_point(scene.bodies[2], p1, ys[0]), rtol=0.0, atol=1e-14)
    assert np.abs(q0 - p0).max() > 1e-3


def _solve(scene, x, y, word, points):
    """_solve_words on one word off balls from x to y, started at points by
    a substituted _starts: (sample fields (t, dir_in, dir_out, residual) or
    None, Newton steps, reason)."""
    bodies = [scene.bodies[b] for b in word]
    s = np.array([(p - np.asarray(b.center)) / b.semiaxes[0] for b, p in
                  zip(bodies, np.asarray(points, dtype=float))]).reshape(len(word), scene.dimension).T
    words = sl.spectra._Words(np.array([len(word)]), np.array(word, dtype=int))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sl.spectra, "_starts", lambda *args: s / np.linalg.norm(s, axis=0))
        t, din, dout, res, steps, reason = sl.spectra._solve_words(
            scene, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None], words)
    got = None if reason[0] else (float(t[0]), tuple(din[:, 0]), tuple(dout[:, 0]), float(res[0]))
    return got, int(steps[0]), reason[0]


def test_newton_2d_recovers_a_deep_root(two_disk_scene):
    # A depth-4 root of the two-disk scene, its reflection points each turned
    # 1e-3 rad about their disk's centre, solves back onto the same root in a
    # few steps, to the root tolerance and within 1e-12 in time.
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=8)
    root = min((s for s in table.samples if s.reflections == 4), key=lambda s: s.t)
    x, y = root.x, root.y
    rec = sl.trace(two_disk_scene, sl.PhaseState(root.x, root.dir_in))
    points = [np.asarray(e.point) for e in rec.events if not e.grazing]
    turned = [np.asarray(two_disk_scene.bodies[k].center)
              + sl.rotation_2d(1e-3) @ (p - two_disk_scene.bodies[k].center)
              for k, p in zip(root.itinerary, points)]
    got, steps, reason = _solve(two_disk_scene, x, y, root.itinerary, turned)
    assert reason is None and 0 < steps <= 5
    assert abs(got[0] - root.t) <= 1e-12
    assert got[3] < sl.spectra._root_tol(two_disk_scene)


def test_spectrum_2d_cells_are_exact_reversals(three_disk_scene):
    # A d = 2 root's mirror is its exact time reversal, as in d = 3, so cells
    # (i, j) and (j, i) hold the same times bit for bit, and their samples
    # are each other's reversals; no shot is fired for the mirrors.
    table = sl.travelling_time_spectrum(three_disk_scene, n_points=6)
    keys = [(tuple(x), tuple(y)) for x, y in sl.spectra.spectrum_pairs(three_disk_scene, 6)]
    assert table.samples
    for k, (x, y) in enumerate(keys):
        j = keys.index((y, x))
        assert table.cells[k] == table.cells[j]
        mine = [s for s in table.samples if s.pair == k]
        theirs = [s for s in table.samples if s.pair == j]
        assert sorted((s.y, s.x, s.t, tuple(-c for c in s.dir_out), tuple(-c for c in s.dir_in),
                       s.residual, s.itinerary[::-1]) for s in mine) == sorted(
            (s.x, s.y, s.t, s.dir_in, s.dir_out, s.residual, s.itinerary) for s in theirs)


@pytest.mark.parametrize("centers, radii, n_points, depth, grid", [
    ([(-3.0, 0.0), (3.0, 0.0)], [1.0, 1.0], 16, 3, 24),
    ([(-3.0, 0.0), (3.0, 0.0)], [1.0, 1.0], 8, 4, 28),
    ([(3.2, 0.0), (-1.6, 2.8), (-1.6, -2.8)], [1.0, 1.0, 1.0], 12, 3, 24),
    ([(-4.0, 0.0), (0.0, 0.0), (4.0, 0.0)], [1.0, 0.5, 1.0], 8, 3, 24)],
    ids=["two-disk", "two-disk-depth-4", "three-disk", "collinear"])
def test_tables_match_the_itinerary_oracle(centers, radii, n_points, depth, grid):
    # The default-depth tables against tests/oracles.disk_itinerary_roots,
    # which minimises each word's length over boundary angles with scipy and
    # checks trajectories its own way: every root of depth 1 to depth is a
    # critical point of its word to 1e-9, and the tables are complete
    # through that depth. On three disks in a row the middle point of
    # (0, 1, 2) has its anchors, the outer centres, opposite about its
    # centre, and the roots over the small middle disk are found all the
    # same. At depth 4 a grid of 24 angles per point holds no grid minimum
    # for the root of (0, 1, 0, 1) between lattice points 2 and 7, which the
    # oracle keeps when started near it; 26 angles and more find it.
    scene = sl.Scene(dimension=2, bodies=tuple(sl.ball(c, r) for c, r in zip(centers, radii)),
                     ball_radius=10.0)
    table = sl.travelling_time_spectrum(scene, n_points=n_points)
    pairs = sl.spectra.spectrum_pairs(scene, n_points)
    oracle = disk_itinerary_roots(centers, radii, pairs, depth, grid=grid)
    checked = Counter()
    for k, roots in enumerate(oracle):
        cell = [s for s in table.samples if s.pair == k]
        for word, times in roots.items():
            for t in times:
                assert any(s.itinerary == word and abs(s.t - t) < 1e-9 for s in cell), (k, word)
                checked[len(word)] += 1
        for s in cell:
            if 1 <= s.reflections <= depth:
                assert any(abs(s.t - t) < 1e-9 for t in roots.get(s.itinerary, ())), (k, s)
    assert all(checked[m] > 0 for m in range(depth + 1))
    if centers[1] == (0.0, 0.0):
        assert all(any(word in roots for roots in oracle) for word in [(0, 1, 2), (2, 1, 0)])


def test_travel_refuses_curve_scenes():
    scene = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    with pytest.raises(sl.ContractError, match="curve obstacles"):
        sl.travelling_time_spectrum(scene, n_points=4)
    with pytest.raises(sl.ContractError, match="curve obstacles"):
        sl.find_xy_geodesics(scene, (-10.0, 0.0), (10.0, 0.0))


# ---------------------------------------------------------------------------
# d = 3 smoke coverage
# ---------------------------------------------------------------------------

def test_travel_3d_antipodal_chord():
    scene = sl.Scene(dimension=3, ball_radius=10.0)
    samples = sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0), (10.0, 0.0, 0.0))
    assert len(samples) == 1
    assert samples[0].t == pytest.approx(20.0, abs=1e-6)


def test_travel_3d_single_bounce_matches_sphere_oracle():
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 1.5), 1.0),),
                     ball_radius=10.0)
    x = np.array([-10.0, 0.0, 0.0])
    y = np.array([0.0, 10.0, 0.0])
    samples = sl.find_xy_geodesics(scene, x, y)
    times = sorted(s.t for s in samples)
    assert times[0] == pytest.approx(float(np.linalg.norm(x - y)), abs=1e-6)
    one = [s for s in samples if s.reflections == 1]
    assert len(one) == 1
    # Brute-force boundary minimization over a dense sphere lattice.
    u = sl.geometry.fibonacci_sphere(400_000)
    c = np.array([0.0, 0.0, 1.5])
    p = c + u
    f = np.linalg.norm(p - x, axis=1) + np.linalg.norm(y - p, axis=1)

    def seg_min_dist(a, b):
        d = b - a
        t = np.clip(np.einsum("ij,ij->i", c - a, d) / np.einsum("ij,ij->i", d, d),
                    0.0, 1.0)
        q = a + t[:, None] * d
        return np.linalg.norm(q - c, axis=1)

    valid = ((seg_min_dist(np.broadcast_to(x, p.shape), p) >= 1 - 1e-9)
             & (seg_min_dist(p, np.broadcast_to(y, p.shape)) >= 1 - 1e-9))
    t_ref = f[valid].min()
    assert one[0].t == pytest.approx(t_ref, abs=1e-4)


def test_travel_3d_deep_shadow_is_empty():
    # A one-bounce exit z off a centred ball of radius 5 has z.n >= 5, so
    # every exit lies at least 10 from the antipode of x. Exactly opposite
    # points have no one-bounce start, and nearly opposite ones get a
    # one-bounce path that is no trajectory; the chord between them goes
    # through the ball, and a longer word would meet the ball twice in a row.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 5.0),),
                     ball_radius=10.0)
    assert sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0), (10.0, 0.0, 0.0)) == []
    table = sl.travelling_time_spectrum(scene, n_points=2)
    assert table.cells == ((), ())
    diag = table.diagnostics_dict()
    assert diag["dropped_clusters"] == 2 == diag["dropped_blocked"] + diag["dropped_inward"]


def test_scan_3d_backscatter():
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),),
                     ball_radius=10.0)
    table = sl.scan_sls(scene, (1.0, 0.0, 0.0), 257)
    central = min(table.samples, key=lambda s: math.hypot(*s.impact))
    assert math.hypot(*central.impact) < 0.5
    assert central.sojourn == pytest.approx(
        -2.0 * math.sqrt(1.0 - math.hypot(*central.impact) ** 2), abs=1e-6)


def _ball_ellipsoid_3d():
    c, s = math.cos(0.5), math.sin(0.5)
    tilt = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return sl.Scene(dimension=3,
                    bodies=(sl.ball((-3.0, 0.0, 0.0), 1.0),
                            sl.ellipsoid((3.0, 0.5, 0.0), (1.5, 1.0, 0.7), tilt)),
                    ball_radius=10.0)


def test_spectrum_3d_matches_per_pair_search():
    # One solve per point pair and one reversal per root must give exactly
    # what the stand-alone search gives for each pair.
    scene = _ball_ellipsoid_3d()
    table = sl.travelling_time_spectrum(scene, n_points=3, depth=4)
    pairs = sl.spectra.spectrum_pairs(scene, 3)
    assert len(table.cells) == len(pairs) == 6
    assert any(table.cells)
    for k, (x, y) in enumerate(pairs):
        alone = sl.find_xy_geodesics(scene, x, y, depth=4)
        assert table.cells[k] == tuple(sorted(s.t for s in alone))
        assert [s for s in table.samples if s.pair == k] == [
            s._replace(pair=k) for s in alone]


def test_spectrum_3d_threaded_matches_serial():
    scene = _ball_ellipsoid_3d()
    serial = sl.travelling_time_spectrum(scene, n_points=3)
    pooled = sl.travelling_time_spectrum(scene, n_points=3, threads=2)
    assert serial.cells == pooled.cells
    assert serial.samples == pooled.samples
    assert serial.diagnostics == pooled.diagnostics


def test_travel_refuses_d4():
    scene = sl.Scene(dimension=4, ball_radius=10.0)
    with pytest.raises(sl.ContractError):
        sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 10.0))
    with pytest.raises(sl.ContractError):
        sl.travelling_time_spectrum(scene, n_points=4)


@pytest.mark.parametrize("d", [3, 4])
def test_travel_refuses_a_phase_off_the_plane(ball_ellipsoid_scene, d):
    # Only the planar lattice turns by a phase. A d = 3 table at phase 0.3
    # would measure the phase-0 cells under a grid that says otherwise.
    scene = ball_ellipsoid_scene if d == 3 else sl.Scene(dimension=4, ball_radius=10.0)
    with pytest.raises(sl.ContractError, match="phase"):
        sl.spectra.spectrum_pairs(scene, 3, phase=0.3)
    with pytest.raises(sl.ContractError, match="phase" if d == 3 else "d = 4"):
        sl.travelling_time_spectrum(scene, n_points=3, phase=0.3)
    assert len(sl.spectra.spectrum_pairs(scene, 3)) == 6


@pytest.fixture(scope="module")
def two_close_balls():
    """Two balls about 1 apart in d = 3, close enough for two-bounce roots."""
    return sl.Scene(dimension=3, bodies=(sl.ball((-1.6, 0.0, 0.0), 1.0),
                                         sl.ball((1.6, 0.3, 0.0), 1.2)), ball_radius=10.0)


def _traced(scene, s):
    """The trace of sample s from x along dir_in: (its itinerary, whether it
    escaped, its exit point's miss of y, its length to the exit minus t, and
    its exit direction's miss of dir_out)."""
    rec = sl.trace(scene, sl.PhaseState(s.x, s.dir_in))
    a = scene.ball_radius
    last = rec.events[-1] if rec.events else None
    p = np.asarray(last.point if last else s.x) - np.asarray(scene.ball_center)
    v = np.asarray(rec.final.direction)
    out = -(p @ v) + math.sqrt((p @ v) ** 2 - (p @ p - a * a))
    exit_pt = np.asarray(scene.ball_center) + p + out * v
    return (sl.itinerary(rec), rec.escaped, float(np.linalg.norm(exit_pt - np.asarray(s.y))),
            (last.path_length if last else 0.0) + out - s.t,
            float(np.linalg.norm(v - np.asarray(s.dir_out))))


@pytest.mark.parametrize("scene_name", ["ball_ellipsoid_scene", "two_close_balls"])
def test_spectrum_3d_samples_are_traced_paths(scene_name, request):
    # Each sample, launched from x along dir_in by the public trace, reflects
    # off the bodies of its itinerary, leaves the reference sphere within the
    # root tolerance of y along dir_out, and takes t to that tolerance, at
    # every depth through 5. The worst miss, 8.7e-7 at depth 5 on the ball
    # and ellipsoid, is set by the dynamics' magnification of rounding, not
    # by the residual.
    scene = request.getfixturevalue(scene_name)
    table = sl.travelling_time_spectrum(scene, n_points=4)
    tol = sl.spectra._root_tol(scene)
    a = scene.ball_radius
    assert {0, 1, 2, 3, 4, 5} == {s.reflections for s in table.samples}
    for s in table.samples:
        itinerary, escaped, miss, dt, turn = _traced(scene, s)
        assert escaped and itinerary == s.itinerary
        assert miss < tol and abs(dt) < tol and turn < tol / a
        assert 0.0 <= s.residual < tol


def test_spectrum_3d_cells_are_exact_reversals(ball_ellipsoid_scene):
    # A d = 3 root's mirror is its exact time reversal, so cells (i, j) and
    # (j, i) hold the same times bit for bit, and their samples are each
    # other's reversals: x and y swapped, the word reversed, the directions
    # negated and swapped.
    table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=4)
    keys = [(tuple(x), tuple(y)) for x, y in sl.spectra.spectrum_pairs(ball_ellipsoid_scene, 4)]
    for k, (x, y) in enumerate(keys):
        j = keys.index((y, x))
        assert table.cells[k] == table.cells[j]
        mine = [s for s in table.samples if s.pair == k]
        theirs = [s for s in table.samples if s.pair == j]
        assert [(s.y, s.x, s.t, tuple(-c for c in s.dir_out), tuple(-c for c in s.dir_in),
                 s.residual, s.itinerary[::-1]) for s in mine] == [
            (s.x, s.y, s.t, s.dir_in, s.dir_out, s.residual, s.itinerary) for s in theirs]


def test_blocked_free_chord_is_dropped(ball_ellipsoid_scene):
    # The chord through a centred ball is no trajectory, and the chord
    # tangent to it grazes and is one. On the fixture table every dropped
    # search is a blocked free chord.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),), ball_radius=10.0)
    none = np.zeros((0, 3))
    assert _solve(scene, (-10.0, 0.0, 0.0), (10.0, 0.0, 0.0), [], none) == (
        None, 0, "dropped_blocked")
    x, y = np.array([-math.sqrt(99.0), 1.0, 0.0]), np.array([math.sqrt(99.0), 1.0, 0.0])
    got, steps, reason = _solve(scene, x, y, [], none)
    assert (steps, reason) == (0, None)
    assert got[0] == 2.0 * math.sqrt(99.0)
    diag = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=4).diagnostics_dict()
    assert diag["dropped_blocked"] > 0
    assert diag["dropped_clusters"] == diag["dropped_blocked"] + diag["dropped_inward"]


def test_far_side_critical_point_is_dropped_inward():
    # The length of one-bounce paths off a ball has a second critical point
    # on the far side, which Newton reaches from a far-side start: its legs
    # enter the ball, so it is no trajectory.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),), ball_radius=10.0)
    got, steps, reason = _solve(scene, (-10.0, 0.0, 0.0), (0.0, 10.0, 0.0), [0],
                                [[0.6, -0.8, 0.0]])
    assert (got, reason) == (None, "dropped_inward")
    assert 0 < steps < sl.spectra._NEWTON_CAP


def test_travel_3d_one_bounce_matches_closed_form():
    # Off a ball at the ball centre, x and y are equally far from the centre,
    # so the one-bounce root reflects at q = r (x + y) / |x + y|, on their
    # bisector: with g the angle between x and y,
    # t = 2 sqrt(a^2 + r^2 - 2 a r cos(g / 2)). Its legs clear the ball when
    # a cos(g / 2) > r, as does the chord; otherwise the pair has no path.
    # Every body's one-bounce word is a candidate of every pair, so every
    # cell with such a path holds it, near-grazing ones included, and pairs
    # the same angle apart hold the same cell.
    a, r = 10.0, 2.0
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), r),), ball_radius=a)
    table = sl.travelling_time_spectrum(scene, n_points=8)
    pairs = sl.spectra.spectrum_pairs(scene, 8)
    by_angle = {}
    for k, (x, y) in enumerate(pairs):
        g = math.acos(max(-1.0, min(1.0, float(x @ y) / (a * a))))
        ones = [s for s in table.samples if s.pair == k and s.reflections == 1]
        if a * math.cos(g / 2.0) > r * (1.0 + 1e-9):
            t = 2.0 * math.sqrt(a * a + r * r - 2.0 * a * r * math.cos(g / 2.0))
            assert len(ones) == 1 and abs(ones[0].t - t) <= 1e-12
            q = r * (x + y) / np.linalg.norm(x + y)
            # The time is second order in the mirror-law defect, the
            # direction first order.
            assert np.linalg.norm(np.asarray(ones[0].dir_in) - (q - x) / np.linalg.norm(q - x)) <= 1e-7
        else:
            assert table.cells[k] == ()
        by_angle.setdefault(round(g, 9), []).append(table.cells[k])
    assert sum(a * math.cos(g / 2.0) > r for g in by_angle) >= 3
    for cells in by_angle.values():
        for cell in cells:
            assert len(cell) == len(cells[0])
            assert all(abs(u - v) <= 1e-12 for u, v in zip(cell, cells[0]))


def test_newton_3d_recovers_tilted_root():
    # The one-bounce root of the sphere-oracle scene, its reflection point
    # turned 1e-3 rad about the ball's centre, solves back onto the same root.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 1.5), 1.0),),
                     ball_radius=10.0)
    x = np.array([-10.0, 0.0, 0.0])
    y = np.array([0.0, 10.0, 0.0])
    (root,) = [s for s in sl.find_xy_geodesics(scene, x, y) if s.reflections == 1]
    q = np.asarray(sl.ray_intersect(scene.bodies[0], x, root.dir_in).point)
    c = np.array([0.0, 0.0, 1.5])
    w = q - c
    turn = sl.spectra.plane_basis(w)[0]
    tilted = c + math.cos(1e-3) * w + math.sin(1e-3) * turn
    got, steps, reason = _solve(scene, x, y, [0], tilted[None, :])
    assert got is not None and reason is None and 0 < steps <= 4
    assert got[3] < sl.spectra._root_tol(scene)
    assert abs(got[0] - root.t) <= 1e-12


def _solve_tilted(scene):
    """_solve_words on a one-bounce word off the ball at the origin, started
    away from its root."""
    return _solve(scene, (-10.0, 0.0, 0.0), (0.0, 10.0, 0.0), [0], [[-0.8, 0.6, 0.0]])


def test_newton_3d_step_cap_is_a_residual_drop(monkeypatch):
    # A search still short of the goal after _NEWTON_CAP steps is dropped as
    # a residual drop, having taken exactly the cap.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),), ball_radius=10.0)
    got, steps, reason = _solve_tilted(scene)
    assert reason is None and steps >= 2
    monkeypatch.setattr(sl.spectra, "_NEWTON_CAP", 1)
    assert _solve_tilted(scene) == (None, 1, "dropped_residual")


def test_newton_3d_singular_hessian_is_a_residual_drop(monkeypatch):
    # A Hessian block with a zero pivot gives a step that is not finite,
    # which ends the search at that step, with no warning raised.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),), ball_radius=10.0)
    solve = sl.spectra._block_solve
    monkeypatch.setattr(sl.spectra, "_block_solve", lambda a, b: solve(0.0 * a, b))
    assert _solve_tilted(scene) == (None, 1, "dropped_residual")


def test_spectrum_3d_counts_failed_searches(ball_ellipsoid_scene, monkeypatch):
    # Every d = 3 path search is a raw one (mirrors are exact reversals), and
    # each failed one is a dropped cluster, counted under its reason.
    spectra = sl.spectra
    solve = spectra._solve_words
    failed = []

    def counting_solve(*args):
        got = solve(*args)
        failed.extend(r for r in got[5] if r)
        return got

    monkeypatch.setattr(spectra, "_solve_words", counting_solve)
    diag = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=4).diagnostics_dict()
    assert len(failed) > 0
    assert diag["dropped_clusters"] == len(failed)
    assert all(diag[r] == failed.count(r) for r in spectra._DROP_REASONS)


def test_newton_step_budget(ball_ellipsoid_scene, monkeypatch):
    # Counted work: newton_steps counts every step of every path search, at
    # most 3 per word here.
    spectra = sl.spectra
    solve = spectra._solve_words
    steps = []

    def counting_solve(*args):
        got = solve(*args)
        steps.extend(got[4].tolist())
        return got

    monkeypatch.setattr(spectra, "_solve_words", counting_solve)
    diag = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=4).diagnostics_dict()
    assert diag["newton_steps"] == sum(steps) > 0
    assert max(steps) <= 3


def _most_steps(scene, monkeypatch, **kwargs):
    """The most Newton steps any word of a table takes."""
    steps = _table_words_and_solves(scene, monkeypatch, **kwargs)[1][4]
    return int(steps.max())


def test_benchmark_tables_take_few_newton_steps(two_disk_scene, monkeypatch):
    # Counted work: a run's words are solved in lockstep, so a table makes
    # one Newton pass for each step of its slowest word. From re-aimed
    # starts that is 4 on the rigidity-2d job's two-disk table at both of its
    # lattice phases, where two near-grazing words took 7 from the starts
    # before the re-aim, and 3 on the travel-3d job's table, where it was 4.
    for phase in (0.3, 2.0 * math.pi / 4 - 0.3):
        assert _most_steps(two_disk_scene, monkeypatch, n_points=4, phase=phase) == 4
    assert _most_steps(_benchmark_ball_ellipsoid(), monkeypatch, n_points=3) == 3


def _table_words_and_solves(scene, monkeypatch, **kwargs):
    """The arguments and the result of a table's one _solve_words call."""
    spectra = sl.spectra
    calls = []
    solve = spectra._solve_words

    def recording_solve(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(spectra, "_solve_words", recording_solve)
        sl.travelling_time_spectrum(scene, **kwargs)
    (call,) = calls
    return call


def _table_words(scene, monkeypatch, **kwargs):
    """The arguments of a table's one _solve_words call."""
    return _table_words_and_solves(scene, monkeypatch, **kwargs)[0]


def _solve_counting_layouts(monkeypatch, args):
    """_solve_words on args, and the number of words of each _layout call."""
    spectra = sl.spectra
    layouts = []
    layout = spectra._layout

    def recording_layout(words, act):
        layouts.append(act.size)
        return layout(words, act)

    with monkeypatch.context() as m:
        m.setattr(spectra, "_layout", recording_layout)
        got = spectra._solve_words(*args)
    return got, layouts


def _run(args, lo, hi):
    """The _solve_words arguments args cut to their words lo to hi - 1."""
    scene, xs, ys, words = args
    first, last = words.count[:lo].sum(), words.count[:hi].sum()
    return scene, xs[lo:hi], ys[lo:hi], sl.spectra._Words(words.count[lo:hi],
                                                          words.obstacles[first:last])


def _bits(got):
    t, dir_in, dir_out, residual, steps, reason = got
    return (t.tobytes(), dir_in.tobytes(), dir_out.tobytes(), residual.tobytes(),
            steps.tolist(), reason)


@pytest.mark.parametrize("cap", [None, 2, 3])
@pytest.mark.parametrize("case", ["three-disk", "ball-ellipsoid"])
def test_bounded_compacting_batches_match_one_batch(case, cap, three_disk_scene,
                                                    ball_ellipsoid_scene, monkeypatch):
    # Solving a table's words in runs of a few words, and laying a run out
    # anew every few stopped points, gives every word's results bit for bit
    # as one unbounded batch does: each word is solved alone. A step cap of
    # 3 makes three-disk words stop by each reason, and a cap of 2 ball +
    # ellipsoid words, which all stop within 3 steps.
    spectra = sl.spectra
    if case == "three-disk":
        args = _table_words(three_disk_scene, monkeypatch, n_points=6)
    else:
        args = _table_words(ball_ellipsoid_scene, monkeypatch, n_points=4)
    if cap:
        monkeypatch.setattr(spectra, "_NEWTON_CAP", cap)
    monkeypatch.setattr(spectra, "_COMPACT_POINTS", 1 << 30)
    whole, layouts = _solve_counting_layouts(monkeypatch, args)
    assert layouts == [np.count_nonzero(args[3].count)]
    monkeypatch.setattr(spectra, "_COMPACT_POINTS", 3)
    layouts, batches, parts = [], [], []
    for lo in range(0, args[3].count.size, 5):
        part, run_layouts = _solve_counting_layouts(monkeypatch, _run(args, lo, lo + 5))
        parts.append(part)
        layouts += run_layouts
        # A batch is a run's first layout.
        batches += run_layouts[:1]
    got = (*(np.concatenate(f, axis=-1) for f in list(zip(*parts))[:5]),
           [why for part in parts for why in part[5]])
    assert _bits(got) == _bits(whole)
    reasons = {None, "dropped_inward", "dropped_blocked"} | ({"dropped_residual"} if cap else set())
    if case == "three-disk" and cap == 2:
        # Within two steps no three-disk word reaches the stopping goal
        # inward; within three, words stop by every reason.
        assert reasons - {"dropped_inward"} <= set(whole[5]) <= reasons
    elif case == "ball-ellipsoid" and cap == 3:
        # From re-aimed starts every ball + ellipsoid word stops within three
        # steps, so none hits the cap.
        assert set(whole[5]) == reasons - {"dropped_residual"}
    else:
        assert set(whole[5]) == reasons
    assert len(batches) > 1 and max(batches) <= 5 and max(layouts) <= 5
    # Every layout after a batch's first one is a compaction.
    assert len(layouts) > len(batches) or cap


def test_benchmark_size_tables_are_laid_out_once(two_disk_scene, monkeypatch):
    # The tables of the rigidity-2d and travel-3d benchmark jobs hold fewer
    # reflection points than a compaction needs, so each is solved in one
    # batch with one layout, in which its words' starts are built too.
    spectra = sl.spectra
    layout = spectra._layout
    layouts = []

    def recording_layout(words, act):
        layouts.append(act.size)
        return layout(words, act)

    monkeypatch.setattr(spectra, "_layout", recording_layout)
    moved = sl.Scene(dimension=2, bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((4.0, 0.0), 1.0)),
                     ball_radius=10.0)
    for scene, kwargs in [(two_disk_scene, dict(n_points=4, phase=0.3)),
                          (moved, dict(n_points=4, phase=0.3)),
                          (_benchmark_ball_ellipsoid(), dict(n_points=3))]:
        layouts.clear()
        args = _table_words(scene, monkeypatch, **kwargs)
        assert 0 < args[3].count.sum() < spectra._COMPACT_POINTS
        assert layouts == [np.count_nonzero(args[3].count)]


def test_travel_3d_imports_no_scipy_optimize(ball_ellipsoid_scene):
    # The d = 3 path search is numpy-only.
    code = ("import sys, scatterlab; "
            "scene = scatterlab.parse_scene(sys.stdin.read()); "
            "table = scatterlab.travelling_time_spectrum(scene, n_points=3, depth=3); "
            "print(len(table.samples), 'scipy.optimize' in sys.modules)")
    src = str(Path(sl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code],
                          input=sl.serialize_scene(ball_ellipsoid_scene),
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    found, loaded = done.stdout.split()
    assert int(found) > 0
    assert loaded == "False"


def test_travel_3d_imports_no_scipy(tmp_path, ball_ellipsoid_scene):
    # The d = 3 search is numpy-only, so neither a table nor CLI travel on a
    # 3-D scene file loads any scipy module.
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(sl.serialize_scene(ball_ellipsoid_scene))
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    library = ("import sys, scatterlab; "
               "scene = scatterlab.parse_scene(open(sys.argv[1]).read()); "
               "table = scatterlab.travelling_time_spectrum(scene, n_points=3, depth=3); "
               "assert table.samples; " + loaded)
    cli = ("import sys; from scatterlab.cli import run_command; "
           "assert run_command(['travel', sys.argv[1], '--points', '3', '--depth', '3', "
           "'--out', sys.argv[2]]) == 0; " + loaded)
    src = str(Path(sl.__file__).resolve().parent.parent)
    for code in (library, cli):
        done = subprocess.run([sys.executable, "-c", code, str(scene_file),
                               str(tmp_path / "travel.csv")],
                              capture_output=True, text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "travel.csv").stat().st_size > 0


def test_spectrum_3d_swap_symmetry_and_residuals(ball_ellipsoid_scene):
    scene = ball_ellipsoid_scene
    table = sl.travelling_time_spectrum(scene, n_points=4)
    tol = sl.spectra._root_tol(scene)
    keys = [(tuple(x), tuple(y)) for x, y in sl.spectra.spectrum_pairs(scene, 4)]
    assert any(table.cells)
    for k, (x, y) in enumerate(keys):
        swapped = table.cells[keys.index((y, x))]
        assert sl.hausdorff_1d(table.cells[k], swapped) <= tol
    assert all(s.residual < tol for s in table.samples)


# ---------------------------------------------------------------------------
# The identity of a root
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scene_name, n_points", [("two_disk_scene", 16), ("three_disk_scene", 12),
                                                  ("ball_ellipsoid_scene", 8)])
def test_a_root_is_its_pair_and_its_word(scene_name, n_points, request, monkeypatch):
    # A root is named by its pair and its word: each word of a point pair is
    # solved once, from one endpoint, so a cell holds each word once, and
    # each sample is that solve, or its reversal, bit for bit.
    scene = request.getfixturevalue(scene_name)
    spectra = sl.spectra
    solve = spectra._solve_words
    copies = {}

    def recording_solve(scene, xs, ys, words):
        got = solve(scene, xs, ys, words)
        t, _, _, residual, _, reason = got
        for n, (x, y, f, k) in enumerate(zip(xs.tolist(), ys.tolist(), _firsts(words),
                                             words.count.tolist())):
            if reason[n] is None:
                word = tuple(words.obstacles[f:f + k].tolist())
                copies.setdefault((tuple(x), tuple(y), word), []).append(
                    (float(t[n]), float(residual[n])))
                copies.setdefault((tuple(y), tuple(x), word[::-1]), []).append(
                    (float(t[n]), float(residual[n])))
        return got

    monkeypatch.setattr(spectra, "_solve_words", recording_solve)
    table = sl.travelling_time_spectrum(scene, n_points=n_points)
    tol = spectra._root_tol(scene)
    cells = Counter((s.pair, s.itinerary) for s in table.samples)
    assert table.samples and max(cells.values()) == 1
    assert all(len(c) == 1 for c in copies.values())
    for s in table.samples:
        ((t, residual),) = copies[(s.x, s.y, s.itinerary)]
        assert (s.t, s.residual) == (t, residual) and residual < tol


# ---------------------------------------------------------------------------
# Tables complete through a depth
# ---------------------------------------------------------------------------

def _benchmark_ball_ellipsoid():
    """The ball plus tilted ellipsoid of the travel-3d benchmark workload."""
    c, s = math.cos(0.5), math.sin(0.5)
    d, e = math.cos(0.4), math.sin(0.4)
    tilt = (np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, d, -e], [0.0, e, d]]))
    return sl.Scene(dimension=3, bodies=(sl.ball((-3.0, 0.0, 0.0), 1.0),
                                         sl.ellipsoid((3.0, 0.5, 0.0), (1.5, 1.0, 0.7), tilt)),
                    ball_radius=10.0)


def test_3d_tables_hold_multi_bounce_roots():
    # The travel-3d benchmark table holds roots deeper than one bounce: 12 at
    # each depth from 2 to 4, where seeds whose exits spread by about the
    # scattering's expansion per reflection once found none.
    table = sl.travelling_time_spectrum(_benchmark_ball_ellipsoid(), n_points=3)
    depths = Counter(s.reflections for s in table.samples)
    assert [depths[m] for m in (2, 3, 4)] == [12, 12, 12]


def test_criterion_7_table_holds_the_symmetric_depth_3_roots(two_disk_scene):
    # On criterion 7's n = 64 table, the pairs symmetric about the line of
    # centres hold the depth-3 words (1, 0, 1) and (0, 1, 0) at t = 23.872361,
    # which a seed sweep missed.
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=64)
    found = {}
    for s in table.samples:
        if s.itinerary in ((1, 0, 1), (0, 1, 0)) and abs(s.t - 23.872361) < 1e-6:
            found.setdefault(s.itinerary, []).append(s)
    assert sorted(found) == [(0, 1, 0), (1, 0, 1)]
    for roots in found.values():
        assert len(roots) == 2
        for s in roots:
            assert abs(s.x[0] - s.y[0]) < 1e-12 and abs(s.x[1] + s.y[1]) < 1e-12


def _ring_scene():
    """A unit disk at the centre and six disks of radius 0.9 centred 2.4 away
    from it: scattering with a trapped set of positive dimension."""
    return sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),) + tuple(
        sl.ball((2.4 * math.cos(k * math.pi / 3.0), 2.4 * math.sin(k * math.pi / 3.0)), 0.9)
        for k in range(6)), ball_radius=10.0)


def test_ring_table_is_bounded_and_traced():
    # Seven bodies through depth 3 are 1 + 7 + 42 + 252 words per pair, and
    # the table's memory stays bounded where a seed sweep's narrowing once
    # grew past gigabytes. Every root's trace reflects off its word in order
    # and leaves the sphere within the root tolerance of y. The peak is the
    # child's VmHWM: its ru_maxrss would also count the test process's own
    # peak, which the kernel carries into a child across exec.
    scene = _ring_scene()
    code = ("import sys, scatterlab; "
            "scene = scatterlab.parse_scene(sys.stdin.read()); "
            "table = scatterlab.travelling_time_spectrum(scene, n_points=4, depth=3); "
            "peak = [f.split()[1] for f in open('/proc/self/status') if f.startswith('VmHWM')]; "
            "print(len(table.samples), *peak)")
    src = str(Path(sl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], input=sl.serialize_scene(scene),
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    found, peak_kb = map(int, done.stdout.split())
    assert peak_kb < 300 * 1024
    table = sl.travelling_time_spectrum(scene, n_points=4, depth=3)
    assert len(table.samples) == found and {s.reflections for s in table.samples} == {0, 1, 2, 3}
    for s in table.samples:
        itinerary, escaped, miss, _, _ = _traced(scene, s)
        assert escaped and itinerary == s.itinerary
        assert miss < sl.spectra._root_tol(scene)


@pytest.mark.parametrize("scene_name, kwargs", [
    ("two_disk_scene", dict(n_points=16, phase=0.3)),
    ("ball_ellipsoid_scene", dict(n_points=4))])
def test_depth_tables_nest(scene_name, kwargs, request):
    # A depth-m table is the depth-(m + 1) table restricted to words of
    # length at most m, sample for sample and bit for bit: each word is
    # solved alone, whatever else is solved with it.
    scene = request.getfixturevalue(scene_name)
    small = sl.travelling_time_spectrum(scene, depth=3, **kwargs)
    big = sl.travelling_time_spectrum(scene, depth=4, **kwargs)
    assert small.samples == tuple(s for s in big.samples if s.reflections <= 3)
    assert small.cells == tuple(
        tuple(sorted(s.t for s in big.samples if s.pair == k and s.reflections <= 3))
        for k in range(len(big.cells)))
    assert len(big.samples) > len(small.samples)


@pytest.mark.parametrize("batch", [50, 5])
def test_runs_of_words_match_one_run(three_disk_scene, monkeypatch, batch):
    # A table solves its words in runs of at most _BATCH_WORDS, taken pair by
    # pair, so that a pair's 22 words here can span runs, with the same
    # samples, cells and diagnostics, bit for bit, as one run of all of them.
    spectra = sl.spectra
    whole = sl.travelling_time_spectrum(three_disk_scene, n_points=6, depth=3)
    calls = []
    solve = spectra._solve_words

    def counting_solve(*args):
        calls.append(args[3].count.size)
        return solve(*args)

    monkeypatch.setattr(spectra, "_BATCH_WORDS", batch)
    monkeypatch.setattr(spectra, "_solve_words", counting_solve)
    runs = sl.travelling_time_spectrum(three_disk_scene, n_points=6, depth=3)
    assert (runs.samples, runs.cells, runs.diagnostics) == (
        whole.samples, whole.cells, whole.diagnostics)
    assert len(calls) == -(-15 * 22 // batch) and max(calls) <= batch
