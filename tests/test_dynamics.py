import math

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.dynamics import _itineraries, _trace_many
from scatterlab.geometry import _dot, _first_hit_nd
from scatterlab.spectra import plane_basis, sphere_lattice
from float_kernels import _trace_2d
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


@pytest.mark.parametrize("d", [2, 3])
def test_trace_refuses_a_start_inside_a_body(d):
    # A start inside the unit ball is refused; one on its boundary, moving
    # out, is exterior.
    scene = sl.Scene(dimension=d, bodies=(sl.ball((0.0,) * d, 1.0),), ball_radius=10.0)
    east = (1.0,) + (0.0,) * (d - 1)
    with pytest.raises(ValueError, match="inside body 0"):
        sl.trace(scene, sl.PhaseState((0.0,) * d, east))
    rec = sl.trace(scene, sl.PhaseState(east, east))
    assert rec.escaped and rec.events == ()


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


def _default_scales(scene) -> tuple:
    """The (off, skip, lmax) of the default trace limits."""
    a = scene.ball_radius
    return (sl.dynamics.SURFACE_OFFSET_FRAC * a, sl.dynamics.GRAZE_SKIP_FRAC * a,
            sl.dynamics.DEFAULT_LENGTH_FACTOR * a)


def _trace_nd(bodies, point, direction, off: float, skip: float, lmax: float):
    """The float reference trace in any d: _first_hit_nd step by step, with
    the batched kernel's reflection, offsets and limits written on floats.
    Returns (escaped, events, leg_origin, direction, leg_length) as _trace_2d
    does, events as (obstacle, point, normal, grazing, direction_after)."""
    o = prev = tuple(map(float, point))
    u = tuple(map(float, direction))
    total = 0.0
    nrefl = 0
    events = []
    while True:
        hit = _first_hit_nd(bodies, o, u)
        if hit is None:
            return True, events, prev, u, total
        oid, _, p, n, _, grazing = hit
        step = [x - y for x, y in zip(p, prev)]
        total += math.sqrt(_dot(step, step))
        prev = p
        if grazing:
            events.append((oid, p, n, True, u))
            o = [x + skip * y for x, y in zip(p, u)]
        else:
            c = 2.0 * _dot(u, n)
            v = [x - c * y for x, y in zip(u, n)]
            nn = math.sqrt(_dot(v, v))
            u = tuple([x / nn for x in v])
            events.append((oid, p, n, False, u))
            nrefl += 1
            o = [x + off * y for x, y in zip(p, n)]
        if nrefl >= sl.dynamics.DEFAULT_MAX_REFLECTIONS or total >= lmax:
            return False, events, p, u, total


def _assert_trace_many_matches(scene, O, dirs) -> list:
    """Every row of a _trace_many call on a body scene equals its _trace_nd
    trace bit for bit, in every dimension: the escape flag, the itinerary,
    the logged events in order, the last leg's origin, the path length and
    the final direction. Returns the itineraries."""
    n = len(dirs)
    escaped, legs, lengths, finals, log = _trace_many(scene, O, dirs)
    itins = _itineraries(log, n)
    assert np.all(log.arc == -1)
    for k, (x, u) in enumerate(zip(O, dirs)):
        esc, events, leg, fdir, length = _trace_nd(scene.bodies, x, u, *_default_scales(scene))
        assert escaped[k] == esc
        assert itins[k] == tuple(e[0] for e in events if not e[3])
        # The log holds the ray's events in order, each bitwise its own.
        rows = np.flatnonzero(log.rows == k)
        assert [(log.obstacle[r], tuple(log.point[r].tolist()), tuple(log.normal[r].tolist()),
                 bool(log.grazing[r]), tuple(log.direction[r].tolist())) for r in rows] == events
        if rows.size:
            assert log.length[rows[-1]] == length
        assert tuple(legs[k].tolist()) == leg
        assert lengths[k] == length
        assert tuple(finals[k].tolist()) == fdir
    return itins


def _assert_trace_many_matches_trace(scene, O, U):
    """Every row of a _trace_many call equals the record trace gives its ray
    alone, event for event: the one-ray API on a scene with curves, which
    the float traces do not see."""
    escaped, legs, lengths, finals, log = _trace_many(scene, O, U)
    for k, (x, u) in enumerate(zip(O, U)):
        rec = sl.trace(scene, sl.PhaseState(x, u))
        assert escaped[k] == rec.escaped
        rows = np.flatnonzero(log.rows == k)
        assert [(log.obstacle[r], None if log.arc[r] < 0 else log.arc[r],
                 tuple(log.point[r].tolist()), tuple(log.normal[r].tolist()),
                 bool(log.grazing[r]), log.length[r], tuple(log.direction[r].tolist()))
                for r in rows] == [(e.obstacle, e.arc, e.point, e.normal, e.grazing,
                                    e.path_length, e.direction_after) for e in rec.events]
        assert tuple(finals[k].tolist()) == rec.final.direction


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


def test_planar_float_traces_agree_bit_for_bit(two_disk_scene):
    # In the plane _trace_nd is _trace_2d in every bit, which lets the
    # agreement tests take _trace_nd as the one float reference: on disks,
    # on rotated ellipses and on rays within 1e-3 of tangency to each body,
    # some within 1e-7 so that they graze.
    ellipses = sl.Scene(dimension=2,
                        bodies=(sl.ellipsoid((-3.0, 0.5), (1.5, 0.6), sl.rotation_2d(0.7)),
                                sl.ball((3.0, 0.0), 1.0),
                                sl.ellipsoid((0.0, -3.5), (0.8, 1.4), sl.rotation_2d(-1.1))),
                        ball_radius=10.0)
    rng = np.random.default_rng(14)
    cos_in = np.concatenate([np.linspace(-1e-3, 1e-3, 51), np.linspace(-1e-7, 1e-7, 21)])
    grazed = reflected = 0
    for scene in (two_disk_scene, ellipses):
        angle = rng.uniform(0.0, 2.0 * math.pi, 1200)
        O = [scene.ball_radius * np.column_stack([np.cos(angle), np.sin(angle)])]
        centers = np.array([b.center for b in scene.bodies])
        U = [centers[np.arange(1200) % len(centers)] + rng.normal(size=(1200, 2)) - O[0]]
        U[0] /= np.linalg.norm(U[0], axis=1, keepdims=True)
        for body in scene.bodies:
            for p in sl.boundary_samples(body, 6):
                n = sl.evaluate_body(body, p)[1]
                n /= np.linalg.norm(n)
                u = -cos_in[:, None] * n + np.sqrt(1.0 - cos_in**2)[:, None] * (-n[1], n[0])
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                O.append(p - 8.0 * u)
                U.append(u)
        scales = _default_scales(scene)
        for x, u in zip(np.vstack(O), np.vstack(U)):
            planar = _trace_2d(scene._k[0], x, u, *scales)
            assert repr(_trace_nd(scene.bodies, x, u, *scales)) == repr(planar)
            grazed += sum(e[3] for e in planar[1])
            reflected += len(planar[1]) >= 2
    assert grazed and reflected


def test_trace_many_matches_single_traces_on_curve_obstacles():
    # The Livshits bump scene: elliptic arcs and segments in three curves.
    # Rays from the reference circle aimed near the cavity reflect off the
    # plates, the bowl and the sealed pocket's shell, and rays tangent to the
    # bowl's ellipse graze it; every event's arc index, grazing flag and
    # direction after the curve normal's reflection must be bitwise those of
    # the ray traced alone.
    scene = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    rng = np.random.default_rng(3)
    angle = rng.uniform(0.0, 2.0 * math.pi, 400)
    O = [scene.ball_radius * np.column_stack([np.cos(angle), np.sin(angle)])]
    U = [rng.normal(scale=1.5, size=(400, 2)) - O[0]]
    U[0] /= np.linalg.norm(U[0], axis=1, keepdims=True)
    for s in np.linspace(-0.5, -0.2, 7):
        touch = np.array([2.0 * math.cos(s), math.sqrt(3.0) * math.sin(s)])
        tangent = np.array([-2.0 * math.sin(s), math.sqrt(3.0) * math.cos(s)])
        tangent /= np.linalg.norm(tangent)
        normal = np.array([tangent[1], -tangent[0]])
        O.append([touch - 5.0 * tangent + h * normal for h in (-1e-6, -1e-10, 0.0, 1e-10, 1e-6)])
        U.append(np.tile(tangent, (5, 1)))
    O, U = np.vstack(O), np.vstack(U)
    _assert_trace_many_matches_trace(scene, O, U)
    log = _trace_many(scene, O, U)[4]
    curves = log.obstacle >= len(scene.bodies)
    assert {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)} <= set(
        zip((log.obstacle[curves] - len(scene.bodies)).tolist(), log.arc[curves].tolist()))
    assert log.grazing.any()
    assert np.bincount(log.rows).max() >= 3


def test_trace_many_rows_that_stop_at_different_steps(two_disk_scene):
    # Rays that leave after 1, 2 and 3 kernel steps share a batch with the
    # orbit on the line of centres, which bounces until the reflection cap;
    # each row is bitwise its single trace, the cut-off row's last leg,
    # length and direction included.
    O = np.array([(0.0, 0.0), (0.0, 5.0), (0.0, 0.3), (0.0, 0.05), (0.0, 0.0)])
    U = np.array([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    itins = _assert_trace_many_matches(two_disk_scene, O, U)
    assert [len(t) for t in itins] == [sl.dynamics.DEFAULT_MAX_REFLECTIONS, 0, 1, 2, 0]


@pytest.mark.parametrize("n_rays", [0, 3])
def test_trace_many_without_events(two_disk_scene, n_rays):
    # No rays at all, and rays that all miss: every row keeps its start
    # point, length 0 and its direction, and the log is empty but typed.
    O = np.tile((0.0, 5.0), (n_rays, 1))
    U = np.tile((1.0, 0.0), (n_rays, 1))
    escaped, legs, lengths, dirs, log = _trace_many(two_disk_scene, O, U)
    assert escaped.tolist() == [True] * n_rays
    assert legs.shape == dirs.shape == (n_rays, 2) and lengths.shape == (n_rays,)
    assert np.array_equal(legs, O) and np.array_equal(dirs, U) and not lengths.any()
    assert all(field.shape[0] == 0 for field in log)
    assert log.point.shape == log.direction.shape == (0, 2)
    assert log.grazing.dtype == bool and log.rows.dtype.kind == log.obstacle.dtype.kind == "i"
    _assert_trace_many_matches(two_disk_scene, O, U)


def _travel_3d_scene() -> sl.Scene:
    """The benchmark's travel-3d scene: a unit ball and an ellipsoid tilted
    about two axes."""
    c, s = math.cos(0.5), math.sin(0.5)
    about_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(0.4), math.sin(0.4)
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return sl.Scene(dimension=3,
                    bodies=(sl.ball((-3.0, 0.0, 0.0), 1.0),
                            sl.ellipsoid((3.0, 0.5, 0.0), (1.5, 1.0, 0.7), about_z @ about_x)),
                    ball_radius=10.0)


def test_trace_many_matches_single_traces_on_a_seed_family():
    # The d = 3 twin of the planar test, on 2,000 inward directions of one
    # sphere point, a Fibonacci lattice on the inner hemisphere.
    scene = _travel_3d_scene()
    x = scene.ball_radius * sphere_lattice(3, 3)[0]
    m = -x / np.linalg.norm(x)
    basis = plane_basis(m)
    hemi = sl.geometry.fibonacci_sphere(4000)
    hemi = hemi[hemi[:, 2] > 1e-6][:2000]
    dirs = hemi[:, 2:3] * m + hemi[:, 0:1] * basis[0] + hemi[:, 1:2] * basis[1]
    itins = _assert_trace_many_matches(scene, np.tile(x, (len(dirs), 1)), dirs)
    assert set(itins) == {(), (0,), (1,)}
    assert itins.count(()) < 1990


def test_trace_many_matches_near_grazing_family_in_3d():
    # Rays entering the tilted ellipsoid at one boundary point with
    # incidence cosines 0.006-0.010, from 8 away.
    scene = _travel_3d_scene()
    body = scene.bodies[1]
    p = body._c + np.asarray(body.rotation) @ (np.asarray(body.semiaxes) * np.array([0.6, 0.0, 0.8]))
    n = body._M @ (p - body._c)
    n /= np.linalg.norm(n)
    tangent = np.cross(n, (0.0, 0.0, 1.0))
    tangent /= np.linalg.norm(tangent)
    cos_in = 0.008 + np.linspace(-2e-3, 2e-3, 201)
    U = -cos_in[:, None] * n + np.sqrt(1.0 - cos_in**2)[:, None] * tangent
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    itins = _assert_trace_many_matches(scene, p - 8.0 * U, U)
    assert all(t[:1] == (1,) for t in itins)


def test_nd_kernels_take_no_matrix_products(monkeypatch, ball_ellipsoid_scene):
    # The d >= 3 batched pass and single-ray hits run the same elementwise
    # arithmetic on arrays and floats, with no BLAS products or norms.
    scene = ball_ellipsoid_scene
    x = np.array([0.0, scene.ball_radius, 0.0])
    dirs = np.array([b.center for b in scene.bodies]) - x
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix product or norm in the d >= 3 kernels")

    monkeypatch.setattr(np, "matmul", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    escaped, _, _, _, log = _trace_many(scene, np.tile(x, (2, 1)), dirs)
    assert escaped.all() and _itineraries(log, 2) == [(0,), (1,)]
    for k, u in enumerate(dirs):
        assert _first_hit_nd(scene.bodies, tuple(x), tuple(u))[0] == k
