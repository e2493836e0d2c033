import math

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.dynamics import _itineraries, _trace_many, _trace_raw
from oracles import mirror_direction


def test_reflect_normal_incidence():
    assert np.allclose(sl.reflect((1.0, 0.0), (-1.0, 0.0)), (-1.0, 0.0))


def test_reflect_tangential_unchanged():
    assert np.allclose(sl.reflect((1.0, 0.0), (0.0, 1.0)), (1.0, 0.0))


def test_reflect_45_degree_mirror():
    s = math.sqrt(2) / 2
    assert np.allclose(sl.reflect((s, -s), (0.0, 1.0)), (s, s))


def test_reflect_matches_reference_formula():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        if v @ n > 0:
            v = -v
        out = sl.reflect(v, n)
        assert np.allclose(out, mirror_direction(v, n), atol=1e-12)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert abs(out @ n + v @ n) < 1e-12


def test_trace_free_ray(empty_scene):
    rec = sl.trace(empty_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    assert rec.classification == "escaped"
    assert rec.events == ()
    assert rec.final.point[0] >= 10.0


def test_trace_backscatter(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    assert rec.escaped
    assert len(rec.events) == 1
    assert np.allclose(rec.events[0].point, (-1.0, 0.0), atol=1e-12)
    assert np.allclose(rec.final.direction, (-1.0, 0.0), atol=1e-12)
    assert sl.itinerary(rec) == (0,)


def test_trace_exterior_axis_ray_backscatters(two_disk_scene):
    # From outside, the axis ray meets the near disk's outer face and turns
    # around after a single reflection; the bouncing orbit between the disks
    # is not reachable from the exterior.
    rec = sl.trace(two_disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    assert rec.escaped
    assert len(rec.events) == 1
    assert np.allclose(rec.events[0].point, (-4.0, 0.0), atol=1e-12)


def test_trace_bouncing_orbit_cutoff(two_disk_scene):
    # Launched between the disks, the axis orbit bounces forever between the
    # inner faces and is classified cutoff at the reflection limit.
    limits = sl.TraceLimits(max_reflections=50)
    rec = sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.0), (1.0, 0.0)), limits)
    assert rec.classification == "cutoff"
    assert len(rec.events) == 50
    pts = [e.point for e in rec.events]
    assert np.allclose(pts[0], (2.0, 0.0), atol=1e-9)
    assert np.allclose(pts[1], (-2.0, 0.0), atol=1e-9)
    itin = sl.itinerary(rec)
    assert itin[:6] == (1, 0, 1, 0, 1, 0)
    assert len(itin) == 50


def test_grazing_continues_straight(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 1.0), (1.0, 0.0)))
    assert rec.escaped
    assert len(rec.events) == 1
    assert rec.events[0].grazing
    assert np.allclose(rec.final.direction, (1.0, 0.0))
    assert sl.itinerary(rec) == ()


def test_specular_conservation_per_bounce(three_disk_scene):
    probes = sl.sphere_probes(three_disk_scene, 800, seed=2)
    bounces = 0
    for p in probes:
        rec = sl.trace(three_disk_scene, p)
        v_in = np.asarray(rec.initial.direction)
        for e in rec.events:
            v_out = np.asarray(e.direction_after)
            n = np.asarray(e.normal)
            if not e.grazing:
                bounces += 1
                assert abs(v_out @ n + v_in @ n) < 1e-12
                t_in = v_in - (v_in @ n) * n
                t_out = v_out - (v_out @ n) * n
                assert np.max(np.abs(t_in - t_out)) < 1e-12
            v_in = v_out
    assert bounces > 100


def test_length_additivity(three_disk_scene):
    probes = sl.sphere_probes(three_disk_scene, 200, seed=9)
    for p in probes:
        rec = sl.trace(three_disk_scene, p)
        pts = [rec.initial.point] + [e.point for e in rec.events]
        if rec.escaped:
            pts.append(rec.final.point)
        total = sum(math.dist(a, b) for a, b in zip(pts[:-1], pts[1:]))
        assert abs(total - rec.total_length) < 1e-9 * (1.0 + rec.total_length)


def test_trace_record_ends(three_disk_scene, ball_ellipsoid_scene):
    # An escaped record ends on the sphere of radius 2a, moving outward; a
    # cutoff record ends at its last event.
    for scene in (three_disk_scene, ball_ellipsoid_scene):
        a = scene.ball_radius
        c = np.asarray(scene.ball_center)
        probes = sl.sphere_probes(scene, 300, seed=5)
        recs = [sl.trace(scene, p) for p in probes]
        escaped = [r for r in recs if r.escaped]
        assert len(escaped) > 200
        assert any(r.events for r in escaped) and any(not r.events for r in escaped)
        for rec in escaped:
            w = np.asarray(rec.final.point) - c
            assert abs(np.linalg.norm(w) - 2.0 * a) <= 1e-12 * a
            assert w @ np.asarray(rec.final.direction) > 0.0
        limits = sl.TraceLimits(max_reflections=1)
        for p in probes:
            rec = sl.trace(scene, p, limits)
            if not rec.escaped:
                assert rec.final.point == rec.events[-1].point
                assert rec.final.direction == rec.events[-1].direction_after
                assert rec.total_length == rec.events[-1].path_length
                break
        else:
            pytest.fail("no probe reached the reflection limit")


def test_monotone_escape(three_disk_scene):
    # Beyond the ball and moving outward there is nothing left to hit.
    rec = sl.trace(three_disk_scene, sl.PhaseState((11.0, 0.0), (1.0, 0.0)))
    assert rec.escaped
    assert rec.events == ()


def test_itinerary_non_repetition(three_disk_scene):
    probes = sl.sphere_probes(three_disk_scene, 500, seed=4)
    for p in probes:
        rec = sl.trace(three_disk_scene, p)
        itin = sl.itinerary(rec)
        for a, b in zip(itin[:-1], itin[1:]):
            assert a != b


def test_reverse_self_retracing(disk_scene):
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    assert sl.time_reverse_deviation(disk_scene, rec) < 1e-9


def test_reverse_random_three_disk(three_disk_scene):
    probes = sl.sphere_probes(three_disk_scene, 600, seed=21)
    n = 0
    for p in probes:
        rec = sl.trace(three_disk_scene, p)
        if not rec.escaped or not rec.events or rec.grazings:
            continue
        n += 1
        if n > 100:
            break
        assert sl.time_reverse_deviation(three_disk_scene, rec) < 1e-6
    assert n > 50


def test_reverse_requires_escape(two_disk_scene):
    limits = sl.TraceLimits(max_reflections=5)
    rec = sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.0), (1.0, 0.0)), limits)
    with pytest.raises(ValueError):
        sl.time_reverse_deviation(two_disk_scene, rec)


def test_reverse_count_mismatch_raises(disk_scene):
    import dataclasses
    rec = sl.trace(disk_scene, sl.PhaseState((-10.0, 0.4), (1.0, 0.0)))
    assert len(rec.events) == 1
    tampered = dataclasses.replace(rec, events=())
    with pytest.raises(sl.ReversibilityError):
        sl.time_reverse_deviation(disk_scene, tampered)


def test_path_length_cutoff(two_disk_scene):
    limits = sl.TraceLimits(max_reflections=10_000, max_path_length=30.0)
    rec = sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.0), (1.0, 0.0)), limits)
    assert rec.classification == "cutoff"
    assert rec.total_length <= 30.0 + 4.0


def test_limits_validation(two_disk_scene):
    with pytest.raises(ValueError):
        sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.0), (1.0, 0.0)),
                 sl.TraceLimits(max_reflections=0))


@pytest.mark.parametrize("limits", [
    {"max_path_length": math.nan},
    {"max_path_length": math.inf},
    {"max_path_length": 0.0},
], ids=["nan-length", "inf-length", "zero-length"])
def test_limits_reject_non_finite(disk_scene, limits):
    with pytest.raises(ValueError):
        sl.trace(disk_scene, sl.PhaseState((-10.0, 0.5), (1.0, 0.0)), sl.TraceLimits(**limits))


def test_phase_state_unit_direction():
    with pytest.raises(ValueError):
        sl.PhaseState((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("point, direction", [
    ((-10.0, 0.0), (math.nan, 0.0)),
    ((-10.0, 0.0), (math.inf, 0.0)),
    ((-10.0, 0.0), (1.0, math.nan)),
    ((math.nan, 0.0), (1.0, 0.0)),
    ((-10.0, -math.inf), (1.0, 0.0)),
], ids=["nan-direction", "inf-direction", "nan-direction-y", "nan-point", "inf-point"])
def test_phase_state_rejects_non_finite(point, direction):
    with pytest.raises(ValueError):
        sl.PhaseState(point, direction)


def test_direction_norm_preserved_along_orbit(two_disk_scene):
    limits = sl.TraceLimits(max_reflections=2000)
    rec = sl.trace(two_disk_scene, sl.PhaseState((0.0, 0.01), (1.0, 0.0)), limits)
    for e in rec.events:
        assert abs(math.hypot(*e.direction_after) - 1.0) < 1e-12


def _assert_trace_many_matches(scene, O, dirs) -> list:
    """Every row of a _trace_many call equals its single trace bit for bit:
    the escape flag, the itinerary, the logged events in order, the last
    leg's origin, the path length and the final direction. Returns the
    itineraries."""
    n = len(dirs)
    escaped, legs, lengths, finals, log = _trace_many(scene, O, dirs)
    itins = _itineraries(log, n)
    for k, (x, u) in enumerate(zip(O, dirs)):
        esc, events, leg, fdir, length = _trace_raw(scene, x, u)
        assert escaped[k] == esc
        assert itins[k] == tuple(e[0] for e in events if not e[4])
        # The log holds the ray's events in order, each bitwise its own.
        rows = np.flatnonzero(log.rows == k)
        assert [(log.obstacle[r], None if log.arc[r] < 0 else log.arc[r],
                 tuple(log.point[r].tolist()), bool(log.grazing[r]),
                 tuple(log.direction[r].tolist())) for r in rows] == \
            [(e[0], e[1], e[2], e[4], e[6]) for e in events]
        assert tuple(legs[k].tolist()) == leg
        assert lengths[k] == length
        assert tuple(finals[k].tolist()) == fdir
    return itins


def test_trace_many_matches_single_traces(ball_ellipsoid_scene):
    # A 500-ray family from one sphere point, aimed near each body in turn.
    scene = ball_ellipsoid_scene
    a = scene.ball_radius
    rng = np.random.default_rng(12)
    x = np.array([0.0, a, 0.0])
    centers = np.array([b.center for b in scene.bodies])
    dirs = centers[np.arange(500) % 2] + rng.normal(scale=0.7, size=(500, 3)) - x
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    itins = _assert_trace_many_matches(scene, np.tile(x, (500, 1)), dirs)
    reflections = [len(t) for t in itins]
    assert reflections.count(0) > 50
    assert {(0,), (1,)} <= set(itins)
    assert max(reflections) >= 2


def test_planar_trace_many_matches_single_traces():
    # The planar twin, on two disks and a tilted ellipse between them: a
    # 600-ray family from one sphere point, aimed near each body in turn.
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.0), 1.0),
                             sl.ellipsoid((0.0, 2.5), (1.2, 0.5), sl.rotation_2d(0.4))),
                     ball_radius=10.0)
    rng = np.random.default_rng(13)
    x = np.array([10.0 * math.cos(1.9), 10.0 * math.sin(1.9)])
    centers = np.array([b.center for b in scene.bodies])
    dirs = centers[np.arange(600) % 3] + rng.normal(scale=0.8, size=(600, 2)) - x
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    itins = _assert_trace_many_matches(scene, np.tile(x, (600, 1)), dirs)
    assert () in itins
    assert {(0,), (1,), (2,)} <= set(itins)
    assert max(len(t) for t in itins) >= 2


def test_planar_trace_many_matches_near_grazing_family(two_disk_scene):
    # Parallel rays whose impact parameter on the unit disk at (-3, 0) gives
    # an incidence cosine of about 0.008, and a little on either side. Near
    # grazing a hit is most sensitive to the root's rounding; the two planar
    # kernels once differed here by 2.3e-12 rad in exit angle after one
    # reflection.
    cos_in = 0.008 + np.linspace(-2e-3, 2e-3, 201)
    impact = np.sqrt(1.0 - cos_in**2)
    O = np.column_stack([np.full(201, -9.5), impact])
    U = np.tile([1.0, 0.0], (201, 1))
    itins = _assert_trace_many_matches(two_disk_scene, O, U)
    assert all(t[:1] == (0,) for t in itins)
