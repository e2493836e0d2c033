import dataclasses
import math

import numpy as np
import pytest

import scatterlab as sl
from oracles import blocked_pair, circle_pair, fermat_circle_times


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
    serial = sl.travelling_time_spectrum(two_disk_scene, n_points=8)
    pooled = sl.travelling_time_spectrum(two_disk_scene, n_points=8, threads=2)
    assert serial.cells == pooled.cells
    assert serial.samples == pooled.samples


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


def test_scan_ball_independence_per_sample(disk_scene):
    # Recomputing each sample's sojourn under a doubled reference ball must
    # leave it unchanged: the trajectory is the same and the definition does
    # not depend on the ball.
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 65)
    bigger = dataclasses.replace(disk_scene, ball_radius=20.0)
    for s in table.samples:
        rec = sl.trace(bigger, sl.PhaseState(s.impact_point, s.omega))
        t2 = sl.sojourn_time(bigger, rec, s.omega, rec.final.direction)
        assert abs(t2 - s.sojourn) < 1e-9


def test_table_metadata(disk_scene):
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 32)
    assert table.scene_digest == disk_scene.digest
    assert all(0 <= s.index < 32 for s in table.samples)
    travel = sl.travelling_time_spectrum(disk_scene, n_points=8)
    assert travel.scene_digest == disk_scene.digest
    assert all(0 <= s.pair < len(travel.cells) for s in travel.samples)


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


# ---------------------------------------------------------------------------
# d = 3 smoke coverage
# ---------------------------------------------------------------------------

def test_travel_3d_antipodal_chord():
    scene = sl.Scene(dimension=3, ball_radius=10.0)
    samples = sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0), (10.0, 0.0, 0.0),
                                   n_seeds=400)
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
    # One sweep per source point and one mirror polish per root must give
    # exactly what the stand-alone two-sweep search gives for each pair.
    scene = _ball_ellipsoid_3d()
    table = sl.travelling_time_spectrum(scene, n_points=3, n_seeds=300)
    pairs = sl.spectra.spectrum_pairs(scene, 3)
    assert len(table.cells) == len(pairs) == 6
    assert any(table.cells)
    for k, (x, y) in enumerate(pairs):
        alone = sl.find_xy_geodesics(scene, x, y, n_seeds=300)
        assert table.cells[k] == tuple(sorted(s.t for s in alone))
        assert [s for s in table.samples if s.pair == k] == [
            dataclasses.replace(s, pair=k) for s in alone]


def test_spectrum_3d_threaded_matches_serial():
    scene = _ball_ellipsoid_3d()
    serial = sl.travelling_time_spectrum(scene, n_points=3, n_seeds=200)
    pooled = sl.travelling_time_spectrum(scene, n_points=3, n_seeds=200, threads=2)
    assert serial.cells == pooled.cells
    assert serial.samples == pooled.samples


def test_spectrum_mirror_polishes_each_raw_root_once(two_disk_scene, monkeypatch):
    spectra = sl.spectra
    raw_roots = []
    mirror_calls = []
    refine = spectra._refine_pair_2d
    mirror = spectra._mirror_refine_2d

    def counting_refine(*args, **kwargs):
        found, dropped = refine(*args, **kwargs)
        raw_roots.extend(found)
        return found, dropped

    def counting_mirror(*args, **kwargs):
        mirror_calls.append(args[1])
        return mirror(*args, **kwargs)

    monkeypatch.setattr(spectra, "_refine_pair_2d", counting_refine)
    monkeypatch.setattr(spectra, "_mirror_refine_2d", counting_mirror)
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=6)
    assert table.samples
    assert len(mirror_calls) == len(raw_roots)
    assert sorted(map(id, mirror_calls)) == sorted(map(id, raw_roots))


def test_travel_refuses_d4():
    scene = sl.Scene(dimension=4, ball_radius=10.0)
    with pytest.raises(sl.ContractError):
        sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 10.0))
    with pytest.raises(sl.ContractError):
        sl.travelling_time_spectrum(scene, n_points=4)
