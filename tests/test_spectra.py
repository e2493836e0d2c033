import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.dynamics import _trace_raw
from scatterlab.geometry import _as_tuple
from scatterlab.spectra import impact_lattice, plane_basis, unit_vector
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
    assert serial.diagnostics_dict()["refine_shots"] > 0
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
    # The reference traces every launch alone through the scalar kernel.
    if scene_name == "livshits_bump":
        scene = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    else:
        scene = request.getfixturevalue(scene_name)
    table = sl.scan_sls(scene, omega, 400)
    c = np.asarray(scene.ball_center)
    win = unit_vector(omega)
    samples = iter(table.samples)
    for k, launch in enumerate(_launches(scene, win, 400)):
        escaped, events, leg, fdir, length = _trace_raw(scene, launch, win)
        if not escaped:
            assert table.cells[k] == ()
            continue
        s = next(samples)
        assert s.index == k
        assert s.itinerary == tuple(e[0] for e in events if not e[4])
        assert s.grazing == any(e[4] for e in events)
        want = 0.0
        if events:
            want = length + (launch - c) @ win - (np.asarray(leg) - c) @ fdir
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


@pytest.mark.parametrize("omega", [(math.nan, 1.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_scan_sls_rejects_non_finite_direction(disk_scene, omega):
    with pytest.raises(sl.ContractError, match="finite unit vector"):
        sl.scan_sls(disk_scene, omega, 4)


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


@pytest.mark.parametrize("n_seeds", [0, -3])
def test_travel_refuses_fewer_than_one_seed(disk_scene, n_seeds):
    with pytest.raises(sl.ContractError, match="at least one seed"):
        sl.find_xy_geodesics(disk_scene, (-10.0, 0.0), (0.0, 10.0), n_seeds=n_seeds)
    with pytest.raises(sl.ContractError, match="at least one seed"):
        sl.travelling_time_spectrum(disk_scene, n_points=4, n_seeds=n_seeds)


def test_spectrum_2d_matches_per_pair_search(two_disk_scene):
    # The plane twin of the d = 3 check: a table cell and its samples are
    # exactly what the two-point search gives for that pair.
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=6, n_seeds=360)
    pairs = sl.spectra.spectrum_pairs(two_disk_scene, 6)
    assert len(table.cells) == len(pairs) == 30
    assert any(table.cells)
    for k, (x, y) in enumerate(pairs):
        alone = sl.find_xy_geodesics(two_disk_scene, x, y, n_seeds=360)
        assert table.cells[k] == tuple(sorted(s.t for s in alone))
        assert [s for s in table.samples if s.pair == k] == [
            dataclasses.replace(s, pair=k) for s in alone]


def _scalar_sweep(scene, x, n_seeds):
    """The d = 2 sweep from x one shot at a time, each split gap subdivided
    depth first: the reference the lockstep sweep reproduces."""
    spectra = sl.spectra
    frame = spectra._frame_at(scene, x)

    def entry(psi):
        shot = spectra._shoot(scene, x, spectra._launch_dir(frame, psi))
        if shot is None:
            return psi, False, 0.0, ()
        return (psi, True, spectra._sphere_angle(scene, shot[3]),
                tuple(e[0] for e in shot[1] if not e[4]))

    def needs_split(ea, eb):
        return (ea[1] != eb[1] or ea[3] != eb[3]
                or (ea[1] and abs(spectra._wrap(ea[2] - eb[2])) > spectra._EXIT_JUMP_TOL))

    def split(ea, eb, depth, out):
        em = entry(0.5 * (ea[0] + eb[0]))
        if depth > 1 and needs_split(ea, em):
            split(ea, em, depth - 1, out)
        out.append(em)
        if depth > 1 and needs_split(em, eb):
            split(em, eb, depth - 1, out)

    seeds = [entry(-0.5 * math.pi + math.pi * (k + 0.5) / n_seeds) for k in range(n_seeds)]
    out = seeds[:1]
    for ea, eb in zip(seeds[:-1], seeds[1:]):
        if needs_split(ea, eb):
            split(ea, eb, spectra._BOUNDARY_SPLIT_DEPTH, out)
        out.append(eb)
    return out


@pytest.mark.parametrize("scene_name", ["two_disk_scene", "three_disk_scene"])
def test_batched_sweep_matches_scalar_shots(scene_name, request):
    # The lockstep sweep has the entries of the one-shot-at-a-time sweep, in
    # the same order, and each makes the escape and itinerary decisions of a
    # single _shoot at its launch angle. Both run one planar arithmetic, so
    # exit angles agree bitwise at every reflection depth, and the bracket
    # solver sees exactly the misses that the sweep saw.
    scene = request.getfixturevalue(scene_name)
    spectra = sl.spectra
    x = np.array([10.0 * math.cos(2.2), 10.0 * math.sin(2.2)])
    (sweep,), _, rays = spectra._sweeps_2d(scene, x[None, :], spectra.SEEDS_2D)
    ref = _scalar_sweep(scene, x, spectra.SEEDS_2D)
    assert sweep.psi == [e[0] for e in ref]
    assert rays == len(ref) > spectra.SEEDS_2D
    assert any(sweep.itinerary)
    for (_, escaped, angle, itin), got_escaped, got_angle, got_itin in zip(
            ref, sweep.escaped, sweep.angle, sweep.itinerary):
        assert got_escaped == escaped
        assert got_itin == itin
        assert got_angle == angle


def test_bracket_scan_matches_scalar_loop(two_disk_scene, monkeypatch):
    # The numpy scan over a sweep takes the exact hits and opens the
    # brackets (lo, hi, flo, fhi) that a loop over adjacent entries does. At
    # n = 32, phase 0.3 a seed of this source point exits exactly at a partner.
    spectra = sl.spectra
    pts, pairs = spectra._pair_grid(two_disk_scene, 32, 1.0, 0.3)
    i = pairs[360][0]
    (sweep,), _, _ = spectra._sweeps_2d(two_disk_scene, pts[i:i + 1], spectra.SEEDS_2D)
    calls = []
    monkeypatch.setattr(spectra, "_illinois_2d",
                        lambda scene, x, y, ty, frame, lo, hi, flo, fhi:
                        calls.append((lo, hi, flo, fhi)) or (None, 0, "dropped_cap"))
    monkeypatch.setattr(spectra, "_delta_at",
                        lambda scene, x, frame, psi, ty: calls.append((psi,)) or (None, None))
    want = []
    entries = list(zip(sweep.psi, sweep.escaped.tolist(), sweep.angle.tolist()))
    for j in [j for ii, j in pairs if ii == i]:
        ty = spectra._sphere_angle(two_disk_scene, pts[j])
        for (pa, ea, aa), (pb, eb, ab) in zip(entries, entries[1:]):
            if not (ea and eb):
                continue
            da, db = spectra._wrap(aa - ty), spectra._wrap(ab - ty)
            if da == 0.0:
                want.append((pa,))
            elif da * db < 0.0 and abs(da - db) < math.pi:
                want.append((pa, pb, da, db))
        spectra._refine_pair_2d(two_disk_scene, pts[i], pts[j], sweep)
    assert calls == want
    assert any(len(c) == 1 for c in want)


def _fake_miss(monkeypatch, miss):
    """Replace _delta_at by miss(psi), the exit-angle miss of a shot that
    leaves at that angle from the target (None: it does not leave), and
    return the list of shot angles."""
    spectra = sl.spectra
    shots = []

    def delta_at(scene, x, frame, psi, ty):
        shots.append(psi)
        d = miss(psi)
        if d is None:
            return None, None
        out = np.array([math.cos(ty + d), math.sin(ty + d)])
        return d, ((1.0, 0.0), [], out, scene.ball_radius * out, 20.0)

    monkeypatch.setattr(spectra, "_delta_at", delta_at)
    return shots


_TY = 0.7
_Y = (10.0 * math.cos(_TY), 10.0 * math.sin(_TY))
_ROOT = 0.1234
_GAP = (0.1221, 0.1221 + math.pi / 720)  # one default seed gap around the root


def _illinois(scene, miss):
    lo, hi = _GAP
    return sl.spectra._illinois_2d(scene, (-10.0, 0.0), _Y, _TY, None, lo, hi,
                                   miss(lo), miss(hi))


def test_illinois_smooth_miss_converges_in_few_shots(empty_scene, monkeypatch):
    # A smooth monotone miss with strong curvature: plain bisection of this
    # gap takes 15 shots to reach the angular goal.
    def miss(psi):
        e = psi - _ROOT
        return e + 4e4 * e ** 3

    shots = _fake_miss(monkeypatch, miss)
    sample, used, reason = _illinois(empty_scene, miss)
    assert reason is None
    assert used == len(shots) <= 8
    assert sample.residual < sl.spectra._root_tol(empty_scene)
    assert abs(shots[-1] - _ROOT) < 1e-8


def test_illinois_branch_edge_stops_before_cap(empty_scene, monkeypatch):
    # A jump of the miss across zero (a branch edge): the bracket shrinks to
    # the width floor before the step cap, and the residual check refuses it.
    def miss(psi):
        return -0.01 if psi < _ROOT else 0.01

    shots = _fake_miss(monkeypatch, miss)
    sample, used, reason = _illinois(empty_scene, miss)
    assert (sample, reason) == (None, "dropped_residual")
    assert used == len(shots) < sl.spectra._ILLINOIS_CAP
    assert abs(shots[-1] - _ROOT) < 1e-14


def test_illinois_lopsided_jump_reaches_cap(empty_scene, monkeypatch):
    # Across a lopsided jump from -0.5 to +0.001 the secant steps land next
    # to the small end, and the bracket does not reach the width floor within
    # the step cap.
    def miss(psi):
        return -0.5 if psi < _ROOT else 0.001

    shots = _fake_miss(monkeypatch, miss)
    assert _illinois(empty_scene, miss) == (None, sl.spectra._ILLINOIS_CAP, "dropped_cap")
    assert len(shots) == sl.spectra._ILLINOIS_CAP


def test_refine_counts_a_lost_shot_as_a_drop(empty_scene, monkeypatch):
    spectra = sl.spectra
    _fake_miss(monkeypatch, lambda psi: None)
    sweep = spectra._Sweep2D(spectra._frame_at(empty_scene, np.array([-10.0, 0.0])),
                             [0.0, 0.01], np.array([True, True]),
                             np.array([_TY - 0.1, _TY + 0.1]), [(), ()])
    found, tally = spectra._refine_pair_2d(empty_scene, (-10.0, 0.0), _Y, sweep)
    assert found == []
    assert tally == Counter(refine_shots=1, dropped_clusters=1, dropped_lost=1)


def test_dropped_brackets_by_reason(empty_scene):
    moved = sl.Scene(dimension=2, bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((4.0, 0.0), 1.0)),
                     ball_radius=10.0)
    reasons = ("dropped_cap", "dropped_lost", "dropped_residual")
    table = sl.travelling_time_spectrum(moved, n_points=4, phase=0.3)
    diag = table.diagnostics_dict()
    assert diag["dropped_clusters"] > 0
    assert sum(diag[r] for r in reasons) == diag["dropped_clusters"]
    diag = sl.travelling_time_spectrum(empty_scene, n_points=4).diagnostics_dict()
    assert diag["refine_shots"] > 0
    assert all(diag[r] == 0 for r in reasons + ("dropped_clusters",))


def test_refine_shot_budget(two_disk_scene, monkeypatch):
    # Counted work: refine_shots counts every shot after the sweep (bracket
    # solves, exact hits, mirror polishes). Bisecting each bracket fired
    # 2,691 shots here; the regula falsi fires 609.
    spectra = sl.spectra
    shoot = spectra._shoot
    shots = []

    def counting_shoot(*args):
        shots.append(1)
        return shoot(*args)

    monkeypatch.setattr(spectra, "_shoot", counting_shoot)
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=4, phase=0.3)
    assert table.samples
    assert table.diagnostics_dict()["refine_shots"] == len(shots) <= 900


def test_sweep_lockstep_budget(two_disk_scene, monkeypatch):
    # Counted work: the sweeps of all source points take one batched trace
    # for the seeds and one per split depth; only root refinement shoots
    # single rays. Tracing every sweep shot alone fires 6,761 shots here.
    spectra = sl.spectra
    shoot, many = spectra._shoot, spectra._trace_many
    shots = []
    rows = []

    def counting_shoot(*args):
        shots.append(1)
        return shoot(*args)

    def counting_many(scene, O, U):
        rows.append(len(O))
        return many(scene, O, U)

    monkeypatch.setattr(spectra, "_shoot", counting_shoot)
    monkeypatch.setattr(spectra, "_trace_many", counting_many)
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=4, phase=0.3)
    assert table.samples
    assert len(rows) <= 1 + spectra._BOUNDARY_SPLIT_DEPTH
    assert len(shots) <= 3000
    assert table.diagnostics_dict()["sweep_rays"] == sum(rows)


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


def test_travel_3d_deep_shadow_is_empty():
    # A one-bounce exit z off a centred ball of radius 5 has z.n >= 5, so
    # every exit lies at least 10 from the antipode of x: no seed's miss is
    # within the seed window, and the search polishes nothing.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 5.0),),
                     ball_radius=10.0)
    assert sl.find_xy_geodesics(scene, (-10.0, 0.0, 0.0), (10.0, 0.0, 0.0)) == []
    table = sl.travelling_time_spectrum(scene, n_points=2)
    assert table.cells == ((), ())
    assert table.diagnostics_dict()["refine_shots"] == 0


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
    assert serial.diagnostics == pooled.diagnostics


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


def test_polish_3d_recovers_tilted_root():
    # The one-bounce root of the sphere-oracle scene, launched 1e-3 rad off
    # its direction, polishes back onto the same root.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 1.5), 1.0),),
                     ball_radius=10.0)
    x = np.array([-10.0, 0.0, 0.0])
    y = np.array([0.0, 10.0, 0.0])
    (root,) = [s for s in sl.find_xy_geodesics(scene, x, y) if s.reflections == 1]
    u = np.asarray(root.dir_in)
    tilted = math.cos(1e-3) * u + math.sin(1e-3) * sl.spectra.plane_basis(u)[0]
    got, _, reason = sl.spectra._polish_3d(scene, x, y, tilted)
    assert got is not None and reason is None
    assert got.residual < sl.spectra._root_tol(scene)
    assert got.itinerary == (0,)
    assert abs(got.t - root.t) <= 1e-9


def test_polish_3d_shot_budget(ball_ellipsoid_scene, monkeypatch):
    # Counted work: every shot of a d = 3 table is a polish shot (the sweep
    # is one batched trace). The polish stops at the root goal and fires 111
    # here.
    spectra = sl.spectra
    shoot = spectra._shoot
    shots = []

    def counting_shoot(*args):
        shots.append(1)
        return shoot(*args)

    monkeypatch.setattr(spectra, "_shoot", counting_shoot)
    table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=3)
    assert table.samples
    assert table.diagnostics_dict()["refine_shots"] == len(shots) <= 150


def test_mirror_polish_3d_takes_at_most_one_step(ball_ellipsoid_scene, monkeypatch):
    # The time reversal of a root polished to the goal meets the goal from
    # the other end at its first shot, or after one step (d - 1 Jacobian
    # shots and one trial) where the path amplifies the raw root's miss.
    spectra = sl.spectra
    mirror = spectra._mirror_refine_3d
    shots = []

    def counting_mirror(*args):
        got, used = mirror(*args)
        assert got is not None
        shots.append(used)
        return got, used

    monkeypatch.setattr(spectra, "_mirror_refine_3d", counting_mirror)
    table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=3)
    assert table.samples
    assert set(shots) <= {1, 1 + ball_ellipsoid_scene.dimension}
    assert shots.count(1) > len(shots) / 2


def test_spectrum_3d_counts_failed_polishes(ball_ellipsoid_scene, monkeypatch):
    spectra = sl.spectra
    polish = spectra._polish_3d
    refine = spectra._refine_pair_3d
    in_raw = []
    failed = []

    def counting_polish(*args):
        got, shots, reason = polish(*args)
        if in_raw and got is None:
            failed.append(reason)
        return got, shots, reason

    def raw_refine(*args):
        # Mirror polishes run outside the raw refinement and are not drops.
        in_raw.append(True)
        try:
            return refine(*args)
        finally:
            in_raw.pop()

    monkeypatch.setattr(spectra, "_polish_3d", counting_polish)
    monkeypatch.setattr(spectra, "_refine_pair_3d", raw_refine)
    table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=4)
    diag = table.diagnostics_dict()
    assert len(failed) > 0
    assert diag["dropped_clusters"] == len(failed)
    assert all(diag[r] == failed.count(r) for r in spectra._DROP_REASONS)
    assert sum(diag[r] for r in spectra._DROP_REASONS) == diag["dropped_clusters"]


def _fake_exit(monkeypatch, miss):
    """Replace _shoot by a shot that leaves at y + (miss(k), 0, 0) on the
    k-th call (None: it does not leave), and return the list of calls."""
    spectra = sl.spectra
    calls = []

    def shoot(scene, x, u):
        calls.append(u)
        m = miss(len(calls))
        if m is None:
            return None
        return u, (), u, _Y3 + np.array([m, 0.0, 0.0]), 20.0

    monkeypatch.setattr(spectra, "_shoot", shoot)
    return calls


_X3 = np.array([-10.0, 0.0, 0.0])
_Y3 = np.array([10.0, 0.0, 0.0])


def _polish(scene):
    return sl.spectra._polish_3d(scene, _X3, _Y3, np.array([1.0, 0.0, 0.0]))


def test_polish_3d_steady_miss_reaches_cap(monkeypatch):
    # A miss that halves every ten shots never stalls and never reaches the
    # goal: the polish gives up at the cap, where a step of d shots (the
    # Jacobian and one trial) no longer fits.
    scene = sl.Scene(dimension=3, ball_radius=10.0)
    calls = _fake_exit(monkeypatch, lambda k: 0.5 ** (k / 10))
    cap = sl.spectra._POLISH_CAP
    got, shots, reason = _polish(scene)
    assert (got, reason) == (None, "dropped_cap")
    assert shots == len(calls)
    assert cap - scene.dimension < shots <= cap


def test_polish_3d_stalled_miss_ends_early(monkeypatch):
    # A miss stuck at a nonzero minimum ends as a residual drop long before
    # the cap; a first shot that does not leave ends at once.
    scene = sl.Scene(dimension=3, ball_radius=10.0)
    calls = _fake_exit(monkeypatch, lambda k: 0.3)
    got, shots, reason = _polish(scene)
    assert (got, reason) == (None, "dropped_residual")
    assert shots == len(calls) <= 2 * sl.spectra._STALL_SHOTS
    calls = _fake_exit(monkeypatch, lambda k: None)
    assert _polish(scene) == (None, 1, "dropped_lost")


def test_travel_3d_imports_no_scipy_optimize(ball_ellipsoid_scene):
    # The d = 3 polish is numpy-only.
    code = ("import sys, scatterlab; "
            "scene = scatterlab.parse_scene(sys.stdin.read()); "
            "table = scatterlab.travelling_time_spectrum(scene, n_points=3, n_seeds=200); "
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
    # The d = 3 seed neighbours come from the lattice, so neither a table nor
    # CLI travel on a 3-D scene file loads any scipy module.
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(sl.serialize_scene(ball_ellipsoid_scene))
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    library = ("import sys, scatterlab; "
               "scene = scatterlab.parse_scene(open(sys.argv[1]).read()); "
               "table = scatterlab.travelling_time_spectrum(scene, n_points=3, n_seeds=200); "
               "assert table.samples; " + loaded)
    cli = ("import sys; from scatterlab.cli import run_command; "
           "assert run_command(['travel', sys.argv[1], '--points', '3', '--seeds', '200', "
           "'--out', sys.argv[2]]) == 0; " + loaded)
    src = str(Path(sl.__file__).resolve().parent.parent)
    for code in (library, cli):
        done = subprocess.run([sys.executable, "-c", code, str(scene_file),
                               str(tmp_path / "travel.csv")],
                              capture_output=True, text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "travel.csv").stat().st_size > 0


def _brute_neighbour_sets(points, k):
    return [set(np.argsort(np.linalg.norm(points - p, axis=1), kind="stable")[:k].tolist())
            for p in points]


@pytest.mark.parametrize("n_seeds", [1, 7, 8, 9, 200, 2000])
def test_seed_neighbours_match_brute_force(n_seeds):
    hemi, nbrs = sl.spectra._hemisphere(n_seeds)
    assert nbrs.shape == (n_seeds, min(8, n_seeds))
    assert (nbrs[:, 0] == np.arange(n_seeds)).all()
    assert [set(row) for row in nbrs.tolist()] == _brute_neighbour_sets(hemi, nbrs.shape[1])


def test_seed_neighbours_hold_in_a_source_frame(ball_ellipsoid_scene):
    # A source point's seeds are the lattice turned into its frame, so the
    # lattice's table names their nearest neighbours too.
    x = 10.0 * unit_vector((0.36, -0.48, 0.8))
    (sweep,), _, _ = sl.spectra._sweeps_3d(ball_ellipsoid_scene, x[None, :], 500)
    assert [set(row) for row in sweep.nbrs.tolist()] == _brute_neighbour_sets(sweep.seeds, 8)


def test_seed_neighbours_fall_back_to_a_full_scan(monkeypatch):
    # In a band of 4 sqrt(n) indices the 8th neighbour of many seeds is not
    # certified, so those rows are searched again over all seeds.
    spectra = sl.spectra
    hemi, _ = spectra._hemisphere(2000)
    search = spectra._nearest_in_band
    widths = []

    def recording_search(points, rows, k, w):
        widths.append((w, len(rows)))
        return search(points, rows, k, w)

    monkeypatch.setattr(spectra, "_BAND_SQRT_N", 4.0)
    monkeypatch.setattr(spectra, "_nearest_in_band", recording_search)
    nbrs = spectra._lattice_neighbours(hemi, 8, 1.0 / 2000)
    assert [w for w, _ in widths] == [179, 2000]
    assert 0 < widths[1][1] < 2000
    assert [set(row) for row in nbrs.tolist()] == _brute_neighbour_sets(hemi, 8)


def test_spectrum_3d_swap_symmetry_and_residuals(ball_ellipsoid_scene):
    scene = ball_ellipsoid_scene
    table = sl.travelling_time_spectrum(scene, n_points=4, n_seeds=600)
    tol = sl.spectra._root_tol(scene)
    keys = [(tuple(x), tuple(y)) for x, y in sl.spectra.spectrum_pairs(scene, 4)]
    assert any(table.cells)
    for k, (x, y) in enumerate(keys):
        swapped = table.cells[keys.index((y, x))]
        assert sl.hausdorff_1d(table.cells[k], swapped) <= tol
    assert all(s.residual < tol for s in table.samples)
