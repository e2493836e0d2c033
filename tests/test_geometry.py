import dataclasses
import math
import pickle

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.geometry import ROOT_TOL, _body_reach, _hits, _support_separation, body_pair_distance
from float_kernels import _first_hit_2d, _first_hit_nd
from oracles import first_curve_hits


def _batch_hits(scene, O, U):
    """_hits on the rows of O and U, scattered over the batch as
    (t, ids, arcs, grazing, points, normals), one entry per row; a ray that
    hits nothing has t = inf, id and arc -1, grazing False and NaN point and
    normal."""
    n = len(O)
    rows, *hit = _hits(scene, O.T, U.T)
    out = (np.full(n, np.inf), np.full(n, -1), np.full(n, -1), np.zeros(n, dtype=bool),
           np.full(O.shape, np.nan), np.full(O.shape, np.nan))
    for full, part in zip(out, hit[:4] + [hit[4].T, hit[5].T]):
        full[rows] = part
    return out


def _float_hit(scene, o, v):
    """The float kernel's hit of one ray on a body scene, _first_hit_2d in
    the plane and _first_hit_nd above, as (id, t, point, normal, grazing),
    or None."""
    o, v = tuple(map(float, o)), tuple(map(float, v))
    if scene.dimension == 2:
        hit = _first_hit_2d(scene._k[0], *o, *v)
        if hit is None:
            return None
        oid, t, px, py, nx, ny, _, grazing = hit
        return oid, t, (px, py), (nx, ny), grazing
    hit = _first_hit_nd(scene._k[0], o, v)
    return None if hit is None else (*hit[:4], hit[5])


def test_evaluate_unit_ball_center():
    body = sl.ball((0.0, 0.0), 1.0)
    value, grad = sl.evaluate_body(body, (0.0, 0.0))
    assert value == pytest.approx(-1.0)
    assert np.allclose(grad, (0.0, 0.0))


def test_evaluate_unit_ball_boundary():
    body = sl.ball((0.0, 0.0), 1.0)
    value, grad = sl.evaluate_body(body, (1.0, 0.0))
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, (2.0, 0.0))


def test_evaluate_ellipsoid():
    body = sl.ellipsoid((0.0, 0.0), (2.0, 1.0))
    value, grad = sl.evaluate_body(body, (2.0, 0.0))
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, (1.0, 0.0))


def test_body_sign_convention():
    body = sl.ellipsoid((1.0, -2.0), (2.0, 0.5), sl.rotation_2d(0.3))
    assert sl.evaluate_body(body, (1.0, -2.0))[0] < 0
    assert sl.evaluate_body(body, (9.0, 9.0))[0] > 0


def test_invalid_bodies_rejected():
    with pytest.raises(ValueError):
        sl.ball((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        sl.ellipsoid((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        sl.ellipsoid((0.0, 0.0), (1.0, 1.0), [[1.0, 0.1], [0.0, 1.0]])
    # Obstacles live in d >= 2.
    with pytest.raises(ValueError, match="at least 2 coordinates"):
        sl.ball((0.0,), 1.0)
    with pytest.raises(ValueError, match="at least 2 coordinates"):
        sl.ellipsoid((0.0,), (1.0,))


@pytest.mark.parametrize("kwargs", [
    {"ball_center": (math.nan, 0.0)},
    {"ball_radius": math.inf},
    {"bodies": (sl.ball((math.nan, 0.0), 1.0),)},
    {"bodies": (sl.ellipsoid((0.0, math.inf), (2.0, 1.0)),)},
    {"curves": (sl.CurveObstacle((sl.EllipticArc((math.nan, 0.0), (2.0, 1.0), (0.0, 3.0)),)),)},
])
def test_scene_rejects_non_finite_numbers(kwargs):
    with pytest.raises(ValueError, match="finite"):
        sl.Scene(dimension=2, **kwargs)


def test_ray_head_on():
    body = sl.ball((0.0, 0.0), 1.0)
    hit = sl.ray_intersect(body, (-2.0, 0.0), (1.0, 0.0))
    assert hit.t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(hit.point, (-1.0, 0.0), atol=1e-12)
    assert np.allclose(hit.normal, (-1.0, 0.0))
    assert hit.cos_incidence == pytest.approx(-1.0)
    assert not hit.grazing


def test_ray_tangent_is_grazing():
    body = sl.ball((0.0, 0.0), 1.0)
    hit = sl.ray_intersect(body, (-2.0, 1.0), (1.0, 0.0))
    assert hit is not None
    assert hit.grazing
    assert np.allclose(hit.point, (0.0, 1.0), atol=1e-7)


def test_ray_miss():
    body = sl.ball((0.0, 0.0), 1.0)
    assert sl.ray_intersect(body, (-2.0, 2.0), (1.0, 0.0)) is None


def test_grazing_consistency_under_perturbation():
    body = sl.ball((0.0, 0.0), 1.0)
    assert sl.ray_intersect(body, (-2.0, 1.0 + 1e-4), (1.0, 0.0)) is None
    low = sl.ray_intersect(body, (-2.0, 1.0 - 1e-4), (1.0, 0.0))
    assert low is not None and not low.grazing
    second = sl.ray_intersect(body, (-2.0, 1.0 - 1e-4), (1.0, 0.0), t_min=low.t + 1e-9)
    assert second is not None


def test_scene_first_hit_empty():
    scene = sl.Scene(dimension=2, ball_radius=10.0)
    assert sl.scene_first_hit(scene, (-6.0, 0.0), (1.0, 0.0)) is None


def test_scene_first_hit_nearest_body_wins(two_disk_scene):
    oid, hit = sl.scene_first_hit(two_disk_scene, (-6.0, 0.0), (1.0, 0.0))
    assert oid == 0
    assert np.allclose(hit.point, (-4.0, 0.0), atol=1e-12)


def test_scene_first_hit_gap(two_disk_scene):
    # The vertical line x = 0 stays 3 - 1 = 2 away from both disks.
    assert sl.scene_first_hit(two_disk_scene, (0.0, 2.0), (0.0, -1.0)) is None


def test_ray_intersect_rotated_ellipsoid_matches_dense_scan():
    rng = np.random.default_rng(4)
    body = sl.ellipsoid((0.5, -0.25), (1.7, 0.6), sl.rotation_2d(0.9))
    rot = np.asarray(body.rotation)
    axes = np.asarray(body.semiaxes)
    for _ in range(50):
        ang = rng.uniform(0, 2 * math.pi)
        origin = np.array([6.0 * math.cos(ang), 6.0 * math.sin(ang)])
        # Aim at a point strictly inside the body so a hit is guaranteed.
        t_ang = rng.uniform(0, 2 * math.pi)
        inner = rng.uniform(0, 0.6)
        target = np.asarray(body.center) + rot @ (axes * inner
                                                  * np.array([math.cos(t_ang), math.sin(t_ang)]))
        v = target - origin
        v /= np.linalg.norm(v)
        hit = sl.ray_intersect(body, origin, v)
        assert hit is not None
        # Dense scan: no sign change of the implicit value before the hit.
        ts = np.linspace(0.0, hit.t, 400, endpoint=False)
        vals = [sl.evaluate_body(body, origin + t * v)[0] for t in ts]
        assert min(vals) > -ROOT_TOL


def test_root_correctness_random():
    rng = np.random.default_rng(77)
    bodies = [
        sl.ball((0.0, 0.0), 1.0),
        sl.ball((1.0, -2.0), 0.5),
        sl.ellipsoid((0.0, 0.5), (2.0, 0.7)),
        sl.ellipsoid((-1.0, 1.0), (1.2, 0.4), sl.rotation_2d(-0.6)),
    ]
    checked = 0
    for _ in range(10_000):
        body = bodies[rng.integers(len(bodies))]
        origin = rng.uniform(-6, 6, size=2)
        if sl.evaluate_body(body, origin)[0] <= 0:
            continue
        # Half the rays are aimed near the body so a good share actually hit.
        if rng.random() < 0.5:
            v = np.asarray(body.center) + rng.normal(scale=0.5, size=2) - origin
        else:
            v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        hit = sl.ray_intersect(body, origin, v)
        if hit is None:
            continue
        checked += 1
        value, _ = sl.evaluate_body(body, hit.point)
        assert abs(value) < 1e-9
        ts = np.linspace(0.0, hit.t, 64, endpoint=False)
        assert all(sl.evaluate_body(body, origin + t * v)[0] > -1e-9 for t in ts)
    assert checked > 2000


def test_convexity_chord_midpoint():
    rng = np.random.default_rng(8)
    body = sl.ellipsoid((0.25, 0.0), (1.5, 0.8), sl.rotation_2d(0.2))
    found = 0
    for _ in range(500):
        origin = rng.uniform(-5, 5, size=2)
        if sl.evaluate_body(body, origin)[0] <= 0:
            continue
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        first = sl.ray_intersect(body, origin, v)
        if first is None or first.grazing:
            continue
        second = sl.ray_intersect(body, origin, v, t_min=first.t + 1e-10)
        if second is None:
            continue
        found += 1
        mid = origin + 0.5 * (first.t + second.t) * v
        assert sl.evaluate_body(body, mid)[0] < 0
    assert found > 50


def _kernel_scene(d: int) -> sl.Scene:
    """A ball, a rotated ellipsoid and an exact copy of that ellipsoid, so
    every ray that meets the ellipsoid meets two bodies at the same t."""
    rot, _ = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))
    semiaxes = (1.5, 0.8) + (1.1, 0.6)[:d - 2]
    ell = sl.ellipsoid((2.5,) + (0.5,) * (d - 1), semiaxes, rot)
    return sl.Scene(dimension=d, bodies=(sl.ball((-3.0,) + (0.0,) * (d - 1), 1.0), ell, ell),
                    ball_radius=10.0)


def _tangent_rays(body, rng, n):
    """Rays touching the body boundary at a random point, origin 2 back, so
    the discriminant lies in the double-root band."""
    d = body.dimension
    rot = np.asarray(body.rotation)
    out = []
    for _ in range(n):
        s = rng.normal(size=d)
        p = body._c + rot @ (np.asarray(body.semiaxes) * s / np.linalg.norm(s))
        normal = body._M @ (p - body._c)
        v = rng.normal(size=d)
        v -= (v @ normal) / (normal @ normal) * normal
        v /= np.linalg.norm(v)
        out.append((p - 2.0 * v, v))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_kernel_matches_scene_first_hit(d):
    scene = _kernel_scene(d)
    rng = np.random.default_rng(40 + d)
    rays = []
    while len(rays) < 600:
        origin = rng.uniform(-8.0, 8.0, size=d)
        if any(sl.evaluate_body(b, origin)[0] <= 0.0 for b in scene.bodies):
            continue
        # Half the rays are aimed near a body, the rest anywhere (mostly misses).
        if rng.random() < 0.5:
            body = scene.bodies[rng.integers(2)]
            v = np.asarray(body.center) + rng.normal(scale=0.8, size=d) - origin
        else:
            v = rng.normal(size=d)
        rays.append((origin, v / np.linalg.norm(v)))
    for body in scene.bodies[:2]:
        rays += _tangent_rays(body, rng, 40)
    O = np.array([o for o, _ in rays])
    U = np.array([v for _, v in rays])
    t, ids, arcs, grazing, points, normals = _batch_hits(scene, O, U)
    assert np.all(arcs == -1)
    # In every d the batched and float kernels run one elementwise
    # arithmetic, with every sum in coordinate order, so they agree bit for
    # bit.
    kinds = set()
    for k, (o, v) in enumerate(rays):
        ref = _float_hit(scene, o, v)
        if ref is None:
            assert ids[k] == -1 and t[k] == math.inf and not grazing[k]
            kinds.add("miss")
            continue
        oid, hit_t, point, normal, graze = ref
        assert ids[k] == oid
        assert bool(grazing[k]) == graze
        assert t[k] == hit_t
        assert tuple(points[k].tolist()) == point
        assert tuple(normals[k].tolist()) == normal
        kinds.add(("graze" if graze else "hit", oid))
    # Misses, hits on the ball and on the first copy of the ellipsoid (the
    # tie rule keeps the second copy out), and grazes on both shapes.
    assert kinds == {"miss", ("hit", 0), ("hit", 1), ("graze", 0), ("graze", 1)}


def test_batched_kernel_matches_scene_first_hit_on_far_small_bodies():
    # Seen from 2,000 away, bodies of size 0.01: the roots, taken about the
    # ray's vertex, need no repair; the batched kernel and the float
    # reference agree bit for bit, and every reported point is on its body
    # to ROOT_TOL.
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((0.0, 0.0), 1e-2),
                             sl.ellipsoid((0.0, 3.0), (2e-2, 1e-2), sl.rotation_2d(0.7))),
                     ball_radius=1e4)
    rng = np.random.default_rng(5)
    ang = rng.uniform(0.0, 2.0 * math.pi, 200)
    O = 2e3 * np.column_stack([np.cos(ang), np.sin(ang)])
    aim = np.array([b.center for b in scene.bodies])[np.arange(200) % 2]
    U = aim + rng.normal(scale=1e-2, size=(200, 2)) - O
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    t, ids, _, grazing, points, normals = _batch_hits(scene, O, U)
    assert {0, 1} <= set(ids.tolist())
    for k in range(200):
        ref = _float_hit(scene, O[k], U[k])
        if ref is None:
            assert ids[k] == -1
            continue
        oid, hit_t, point, normal, graze = ref
        assert (ids[k], t[k], bool(grazing[k])) == (oid, hit_t, graze)
        assert tuple(points[k].tolist()) == point
        assert tuple(normals[k].tolist()) == normal
        assert abs(sl.evaluate_body(scene.bodies[oid], points[k])[0]) <= ROOT_TOL


def _far_body(target: str, d: int) -> tuple:
    """(body, distance it is seen from) for test_small_far_bodies_abort_no_ray."""
    rot, _ = np.linalg.qr(np.random.default_rng(90 + d).normal(size=(d, d)))
    if target == "ball":
        return sl.ball((0.0,) * d, 1e-3), 5e3
    if target == "ellipsoid":
        return sl.ellipsoid((0.0,) * d, (2e-2, 1e-2, 5e-3)[:d], rot), 2e3
    return sl.ellipsoid((0.0,) * d, (1.0, 1e-3, 1e-3)[:d], rot), 5e3


@pytest.mark.parametrize("target, d", [
    pytest.param("ball", 2, id="2"), pytest.param("ball", 3, id="3"),
    pytest.param("ellipsoid", 2, id="ellipsoid-2"), pytest.param("ellipsoid", 3, id="ellipsoid-3"),
    pytest.param("needle", 2, id="needle-2"), pytest.param("needle", 3, id="needle-3")])
def test_small_far_bodies_abort_no_ray(target, d):
    # A ball of radius 1e-3 seen from 5e3 away, a tilted ellipsoid of size
    # 1e-2 from 2e3 and a 1e3:1 needle from 5e3: the hit point o + t u
    # carries a rounding error of about eps |o|, which moves phi by about
    # 2 eps |o| / r, above ROOT_TOL for the ball and the needle. With the
    # quadratic taken about the ray's vertex, every hit, snap-band grazes
    # included, is on its body to ROOT_TOL or that rounding floor, so no ray
    # raises and no batch aborts, and the two kernels agree bit for bit.
    body, far = _far_body(target, d)
    scene = sl.Scene(dimension=d, bodies=(body,), ball_radius=1e4)
    n = 1000 if d == 2 else 600
    rng = np.random.default_rng(60 + d)
    O = rng.normal(size=(n, d))
    O *= far / np.linalg.norm(O, axis=1, keepdims=True)
    # Aim at points spread over the body's own shape.
    U = (rng.normal(size=(n, d)) * (0.5 * np.asarray(body.semiaxes))
         @ np.asarray(body.rotation).T - O)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    hits = 0
    for start in range(0, n, 200):
        batch = slice(start, start + 200)
        t, ids, _, grazing, points, normals = _batch_hits(scene, O[batch], U[batch])
        for k, (o, v) in enumerate(zip(O[batch], U[batch])):
            ref = _float_hit(scene, o, v)
            if ref is None:
                assert ids[k] == -1
                continue
            hits += 1
            oid, hit_t, point, normal, graze = ref
            assert (ids[k], t[k], bool(grazing[k])) == (oid, hit_t, graze)
            assert tuple(points[k].tolist()) == point
            assert tuple(normals[k].tolist()) == normal
            value, grad = sl.evaluate_body(scene.bodies[oid], point)
            floor = (8.0 * np.finfo(float).eps * math.sqrt(d) * (np.max(np.abs(o)) + hit_t)
                     * 0.5 * np.linalg.norm(grad))
            assert abs(value) <= max(ROOT_TOL, floor)
    assert hits > 0.8 * n


@pytest.mark.parametrize("d", [2, 3])
def test_off_body_hits_raise(d, monkeypatch):
    # With ROOT_TOL and the rounding floor at 0, every hit whose implicit
    # value is not exactly 0 is off its body: each kernel raises, with the
    # offending ray, and none tries to repair the root.
    rot, _ = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))
    body = sl.ellipsoid((0.5,) * d, (1.5, 0.8, 1.1)[:d], rot)
    scene = sl.Scene(dimension=d, bodies=(body,), ball_radius=10.0)
    origin = np.array((-6.0,) + (0.3,) * (d - 1))
    v = np.asarray(body.center) + 0.1 - origin
    v /= np.linalg.norm(v)
    miss = np.array((0.0,) * (d - 1) + (1.0,))
    monkeypatch.setattr(sl.geometry, "ROOT_TOL", 0.0)
    monkeypatch.setattr(sl.geometry, "_ROUNDING", 0.0)
    calls = (lambda: sl.ray_intersect(body, origin, v),
             lambda: _float_hit(scene, origin, v),
             lambda: sl.scene_first_hit(scene, origin, v),
             lambda: _batch_hits(scene, np.array([origin, origin]), np.array([miss, v])))
    for call in calls:
        with pytest.raises(sl.RayIntersectError) as err:
            call()
        assert err.value.origin == tuple(origin.tolist())
        assert err.value.direction == tuple(v.tolist())


def test_off_body_hits_raise_for_the_lowest_row(monkeypatch):
    # Two kinds of body, each hit off its body when ROOT_TOL and the rounding
    # floor are 0: the batched kernel names the lowest offending row, not the
    # first offending kind.
    ellipse = sl.ellipsoid((0.5, 4.0), (1.5, 0.8), sl.rotation_2d(0.7))
    scene = sl.Scene(dimension=2, bodies=(sl.ball((0.3, -4.0), 1.3), ellipse), ball_radius=10.0)
    origin = np.array([-6.0, 0.3])
    rays = [(origin, v / np.linalg.norm(v)) for v in (np.asarray(b.center) + 0.1 - origin
                                                      for b in reversed(scene.bodies))]
    monkeypatch.setattr(sl.geometry, "ROOT_TOL", 0.0)
    monkeypatch.setattr(sl.geometry, "_ROUNDING", 0.0)
    for o, v in rays:
        with pytest.raises(sl.RayIntersectError):
            _float_hit(scene, o, v)
    for batch in (rays, rays[::-1]):
        O = np.array([o for o, _ in batch])
        U = np.array([v for _, v in batch])
        with pytest.raises(sl.RayIntersectError) as err:
            _batch_hits(scene, O, U)
        assert err.value.direction == tuple(U[0].tolist())


def _one_body_rays(body, rng, n):
    """Random rays from outside the body, half aimed near it, plus rays
    tangent to it."""
    d = body.dimension
    rays = []
    while len(rays) < n:
        origin = np.asarray(body.center) + rng.uniform(-6.0, 6.0, size=d)
        if sl.evaluate_body(body, origin)[0] <= 0.0:
            continue
        if rng.random() < 0.5:
            v = np.asarray(body.center) + rng.normal(scale=0.8, size=d) - origin
        else:
            v = rng.normal(size=d)
        rays.append((origin, v / np.linalg.norm(v)))
    return rays + _tangent_rays(body, rng, 40)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ray_intersect_matches_scene_first_hit(d):
    # On a one-body scene the body-level query is the scene kernel on one
    # ray: every field of every hit equals scene_first_hit's and the float
    # reference's, grazes included, and a second query past the first hit
    # honours t_min, bit for bit with the reference there too.
    rot, _ = np.linalg.qr(np.random.default_rng(70 + d).normal(size=(d, d)))
    bodies = (sl.ball((0.5,) * d, 1.2),
              sl.ellipsoid((0.5,) * d, (1.6, 0.7, 1.1, 0.9)[:d], rot))
    rng = np.random.default_rng(80 + d)
    kinds = set()
    for body in bodies:
        scene = sl.Scene(dimension=d, bodies=(body,), ball_radius=20.0)

        def float_hit(origin, v, t_min=0.0):
            ref = _first_hit_nd(scene._k[0], tuple(origin.tolist()), tuple(v.tolist()), t_min)
            return None if ref is None else sl.Hit(*ref[1:])

        for origin, v in _one_body_rays(body, rng, 400):
            hit = sl.ray_intersect(body, origin, v)
            assert hit == float_hit(origin, v)
            ref = sl.scene_first_hit(scene, origin, v)
            if ref is None:
                assert hit is None
                kinds.add("miss")
                continue
            assert ref[1] == hit
            kinds.add("graze" if hit.grazing else "hit")
            later = sl.ray_intersect(body, origin, v, t_min=hit.t + 1e-9)
            assert later == float_hit(origin, v, hit.t + 1e-9)
            if hit.grazing:
                continue
            assert later is not None and later.t > hit.t + 1e-9
            assert sl.ray_intersect(body, origin, v, t_min=later.t + 1e-9) is None
    assert kinds == {"miss", "hit", "graze"}


def _segment_arc_scene() -> sl.Scene:
    """A disk next to a D shape: a chord and the lower half of an ellipse."""
    shape = sl.CurveObstacle((
        sl.SegmentArc((-1.5, 0.0), (1.5, 0.0)),
        sl.EllipticArc((0.0, 0.0), (1.5, 0.8), (0.0, -math.pi)),
    ))
    return sl.Scene(dimension=2, bodies=(sl.ball((0.0, 3.0), 1.0),), curves=(shape,),
                    ball_radius=10.0)


def _curve_rays(scene, rng):
    """Random rays aimed near the curves; rays aimed exactly at every arc
    endpoint, and at points 5e-13 and 1e-6 past it, inside and outside the
    kernel's end tolerance; and rays tangent to every elliptic arc."""
    rays = []

    def aim(origin, target):
        v = np.asarray(target, dtype=float) - origin
        rays.append((origin, v / np.linalg.norm(v)))

    for _ in range(500):
        aim(rng.uniform(-6.0, 6.0, size=2), rng.uniform(-2.5, 1.0, size=2))
    for curve in scene.curves:
        for arc in curve.arcs:
            if isinstance(arc, sl.EllipticArc):
                lo, hi = sorted(arc.angles)
                past = [arc.point(s) for s in (lo - 1e-6, lo - 5e-13, hi + 5e-13, hi + 1e-6)]
            else:
                a, b = np.asarray(arc.start), np.asarray(arc.end)
                past = [a + s * (b - a) for s in (-1e-6, -5e-13, 1.0 + 5e-13, 1.0 + 1e-6)]
            for end in [arc.start, arc.end] + past:
                for _ in range(4):
                    aim(np.asarray(end) + rng.normal(scale=3.0, size=2), end)
            if isinstance(arc, sl.EllipticArc):
                for s in rng.uniform(lo, hi, size=30):
                    sa, sb = arc.semiaxes
                    v = np.array([-sa * math.sin(s), sb * math.cos(s)])
                    v /= np.linalg.norm(v)
                    rays.append((np.asarray(arc.point(s)) - 2.0 * v, v))
    return rays


def _oracle_pieces(scene):
    """The scene's bodies (disks) and curve arcs as first_curve_hits takes
    them."""
    pieces = [(i, None, ("ellipse", b.center, b.semiaxes, (0.0, 2.0 * math.pi)))
              for i, b in enumerate(scene.bodies)]
    for ci, curve in enumerate(scene.curves):
        for ai, arc in enumerate(curve.arcs):
            piece = (("segment", arc.start, arc.end) if isinstance(arc, sl.SegmentArc)
                     else ("ellipse", arc.center, arc.semiaxes, arc.angles))
            pieces.append((len(scene.bodies) + ci, ai, piece))
    return pieces


def _assert_matches_oracle(scene, o, v, oid, arc, t, normal):
    """The hit (oid, arc, t, normal) is one the closed-form oracle finds
    first on the ray, at its t to 1e-12 relative (absolute below t = 1), with
    the oracle's normal: outward on a body, facing the ray on an arc."""
    want = {(i, a): (ti, n) for i, a, ti, n in first_curve_hits(_oracle_pieces(scene), o, v)}
    assert (oid, arc) in want
    ti, n = want[oid, arc]
    assert abs(t - ti) <= 1e-12 * max(ti, 1.0)
    if arc is not None:
        # Summed as the kernel sums it: at a tangency the sign is rounding.
        assert v[0] * normal[0] + v[1] * normal[1] <= 0.0
        n = n if np.dot(normal, n) > 0.0 else -n
    assert np.allclose(normal, n, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("variant", ["bump", "flat", "segment-arc"])
def test_batched_kernel_matches_scene_first_hit_on_curves(variant):
    # Against closed forms written apart from the library: every ray the
    # oracle sees miss is a miss, and every hit is on the obstacle and arc
    # the oracle finds first, at its t.
    if variant == "segment-arc":
        scene = _segment_arc_scene()
    else:
        scene = sl.build_livshits_scene(sl.LivshitsParams(), variant)
    rays = _curve_rays(scene, np.random.default_rng(61))
    O = np.array([o for o, _ in rays])
    U = np.array([v for _, v in rays])
    t, ids, arcs, grazing, points, normals = _batch_hits(scene, O, U)
    pieces = _oracle_pieces(scene)
    kinds = set()
    for k, (o, v) in enumerate(rays):
        if ids[k] == -1:
            assert arcs[k] == -1 and t[k] == math.inf and not grazing[k]
            assert first_curve_hits(pieces, o, v) == []
            kinds.add("miss")
            continue
        arc = None if arcs[k] < 0 else int(arcs[k])
        _assert_matches_oracle(scene, o, v, ids[k], arc, t[k], normals[k])
        assert np.allclose(points[k], o + t[k] * v, rtol=0.0, atol=1e-12 * (1.0 + t[k]))
        if arc is not None:
            curve = scene.curves[ids[k] - len(scene.bodies)]
            kinds.add(("graze" if grazing[k] else "hit", type(curve.arcs[arc]).__name__))
    assert {"miss", ("hit", "SegmentArc"), ("hit", "EllipticArc"),
            ("graze", "EllipticArc")} <= kinds


def test_batched_kernel_matches_scene_first_hit_at_an_arc_end():
    # The arc's end, with its 1e-12 tolerance, falls between the angles
    # math.atan2 and np.arctan2 give this hit (1.9510774591155278 and
    # 1.9510774591155275 with numpy 2.4): the kernel takes the angle by
    # np.arctan2, so it places the hit on the arc; the oracle, by its own
    # arithmetic, agrees.
    arc = sl.EllipticArc((0.0, 0.0), (1.5, 0.8), (0.0, 1.9510774591145275))
    scene = sl.Scene(dimension=2, curves=(sl.CurveObstacle((arc,)),), ball_radius=10.0)
    o, v = (-4.0, 2.5), (0.8907196712762726, -0.45455304113105294)
    oid, hit = sl.scene_first_hit(scene, o, v)
    assert (oid, hit.arc) == (0, 0)
    _assert_matches_oracle(scene, o, v, oid, hit.arc, hit.t, hit.normal)
    t, ids, arcs, grazing, points, normals = _batch_hits(scene, np.array([o]), np.array([v]))
    assert (ids[0], arcs[0], t[0], bool(grazing[0])) == (0, 0, hit.t, hit.grazing)
    assert tuple(points[0].tolist()) == hit.point
    assert tuple(normals[0].tolist()) == hit.normal


def test_hit_normal_is_unit():
    body = sl.ellipsoid((0.0, 0.0), (2.0, 1.0), sl.rotation_2d(1.1))
    hit = sl.ray_intersect(body, (-5.0, 0.3), (1.0, 0.0))
    assert abs(np.linalg.norm(hit.normal) - 1.0) < 1e-12


def test_validate_admissible_scene(two_disk_scene):
    report = sl.validate_scene(two_disk_scene)
    assert report.ok
    assert str(report) == "OK"


def test_validate_overlap():
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((-0.5, 0.0), 1.0), sl.ball((0.5, 0.0), 1.0)),
                     ball_radius=10.0)
    report = sl.validate_scene(scene)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "disjointness" in kinds
    assert any(v.subjects == (0, 1) for v in report.violations)


def test_validate_containment():
    scene = sl.Scene(dimension=2, bodies=(sl.ball((9.5, 0.0), 1.0),), ball_radius=10.0)
    report = sl.validate_scene(scene)
    assert any(v.kind == "containment" for v in report.violations)


def test_validate_ellipsoid_pair_distance():
    close = sl.Scene(dimension=2,
                     bodies=(sl.ellipsoid((0.0, 0.0), (1.0, 0.5)),
                             sl.ellipsoid((2.0 + 5e-7, 0.0), (1.0, 0.5))),
                     ball_radius=10.0)
    assert any(v.kind == "disjointness" for v in sl.validate_scene(close).violations)
    apart = sl.Scene(dimension=2,
                     bodies=(sl.ellipsoid((0.0, 0.0), (1.0, 0.5)),
                             sl.ellipsoid((2.5, 0.0), (1.0, 0.5))),
                     ball_radius=10.0)
    assert sl.validate_scene(apart).ok


def test_validate_refuses_crossed_curves(crossed_curve_scene):
    [v] = sl.validate_scene(crossed_curve_scene).violations
    assert (v.kind, v.subjects) == ("disjointness", (0, 1))


def _one_segment(a, b):
    return sl.CurveObstacle((sl.SegmentArc(a, b),))


@pytest.mark.parametrize("y, ok", [(1.0, False), (0.99999, False), (1.001, True)])
def test_validate_curve_against_body_is_exact_for_segments(y, ok):
    # At y = 0.99999 the segment cuts a chord of 0.009 from the unit disk,
    # which falls between two of its 720 samples (spaced 0.025); at y = 1 it
    # touches the disk.
    scene = sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                     curves=(_one_segment((-9.0, y), (9.0, y)),), ball_radius=10.0)
    assert sl.validate_scene(scene).ok == ok


@pytest.mark.parametrize("other, ok", [
    (((-2.0, 1e-7), (2.0, 1e-7)), False),   # parallel, within the tolerance
    (((0.0, 0.0), (0.0, 2.0)), False),      # ends on the first segment
    (((-2.0, 2e-6), (2.0, 2e-6)), True),
    (((0.3, 1e-3), (0.0, 2.0)), True),
])
def test_validate_curve_pair_tolerance(other, ok):
    scene = sl.Scene(dimension=2, curves=(_one_segment((-2.0, 0.0), (2.0, 0.0)),
                                          _one_segment(*other)), ball_radius=10.0)
    assert sl.validate_scene(scene).ok == ok


NESTED_PAIRS = [
    (sl.ellipsoid((0.0, 0.0), (3.0, 2.0)), sl.ellipsoid((0.0, 0.0), (1.0, 0.5))),
    (sl.ellipsoid((0.0, 0.0), (3.0, 2.0)), sl.ball((0.0, 0.0), 0.5)),
    (sl.ellipsoid((0.0, 0.0, 0.0), (3.0, 2.0, 1.5)), sl.ball((0.2, 0.0, 0.0), 0.5)),
]


@pytest.mark.parametrize("outer, inner", NESTED_PAIRS)
def test_validate_refuses_nested_bodies(outer, inner):
    # The boundaries are apart, but the bodies are not disjoint.
    assert body_pair_distance(outer, inner) < 0.0
    assert body_pair_distance(inner, outer) < 0.0
    scene = sl.Scene(dimension=outer.dimension, bodies=(outer, inner), ball_radius=10.0)
    [v] = [v for v in sl.validate_scene(scene).violations if v.kind == "disjointness"]
    assert v.subjects == (0, 1)
    assert float(v.detail.split()[-1]) < 0.0


@pytest.mark.parametrize("angle", [0.3, 2.9])
def test_validate_rotated_ellipsoid_pair_tolerance(angle):
    rot = sl.rotation_2d(angle)

    def pair(gap):
        return sl.Scene(dimension=2,
                        bodies=(sl.ellipsoid((0.0, 0.0), (1.0, 0.5), rot),
                                sl.ellipsoid(rot @ (2.0 + gap, 0.0), (1.0, 0.5), rot)),
                        ball_radius=10.0)

    assert any(v.kind == "disjointness" for v in sl.validate_scene(pair(5e-7)).violations)
    assert sl.validate_scene(pair(2e-6)).ok


def _random_pairs(d, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        rot = q * np.sign(np.diag(r))
        yield (sl.ellipsoid(rng.uniform(-3, 3, d), rng.uniform(0.2, 2, d), rot),
               sl.ellipsoid(rng.uniform(-3, 3, d), rng.uniform(0.2, 2, d), rot.T))


@pytest.mark.parametrize("d", [2, 3])
def test_support_separation_bounds_agree(d):
    rot = sl.rotation_2d(0.3)
    near = [(sl.ellipsoid((0.0, 0.0), (1.0, 0.5), rot),
             sl.ellipsoid(rot @ (2.0 + gap, 0.0), (1.0, 0.5), rot))
            for gap in (1e-9, 5e-7, 2e-6)] if d == 2 else []
    checked = 0
    for a, b in near + list(_random_pairs(d, 40, seed=d)):
        n, lower, upper = _support_separation(a, b)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        if lower > 0.0:
            checked += 1
            assert abs(upper - lower) <= 1e-12
            # No pair of boundary samples is closer than the certified gap.
            pa, pb = sl.boundary_samples(a, 400), sl.boundary_samples(b, 400)
            sampled = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2))
            assert lower <= sampled + 1e-12
    assert checked >= 25


def test_pair_distance_exact_in_four_dimensions():
    a = sl.ellipsoid((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.7, 0.3))
    b = sl.ellipsoid((3.5, 0.0, 0.0, 0.0), (1.2, 0.9, 0.4, 0.6))
    assert abs(body_pair_distance(a, b) - (3.5 - 1.0 - 1.2)) < 1e-12


def _rot3(axis, angle):
    out = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    c, s = math.cos(angle), math.sin(angle)
    out[i, i], out[i, j], out[j, i], out[j, j] = c, -s, s, c
    return out


def test_validate_containment_is_exact_for_ellipsoids():
    body = sl.ellipsoid((7.0, 0.5, 0.0), (1.5, 1.0, 0.7), _rot3(2, 0.5) @ _rot3(0, 0.4))
    assert _body_reach(body, np.zeros(3)) == pytest.approx(8.4475323858, abs=1e-9)
    # The body pokes 1e-4 out of this ball; 720 boundary samples miss it.
    scene = sl.Scene(dimension=3, bodies=(body,), ball_radius=8.4474317)
    assert any(v.kind == "containment" for v in sl.validate_scene(scene).violations)


@pytest.mark.parametrize("body, point", [
    (sl.ellipsoid((0.0, 0.0), (2.0, 1.0), sl.rotation_2d(0.7)), (0.3, -0.2)),
    (sl.ellipsoid((0.0, 0.0), (2.0, 1.0)), (0.0, 0.1)),   # farthest point at t = 0
    (sl.ellipsoid((0.0, 0.0), (2.0, 1.0)), (0.0, 5.0)),   # no longest-axis part, t > 0
    (sl.ellipsoid((0.0, 0.0), (2.0, 1.0)), (0.0, 0.0)),
    (sl.ball((1.0, 2.0), 0.7), (0.0, 0.0)),
])
def test_body_reach_bounds_boundary_samples(body, point):
    reach = _body_reach(body, np.asarray(point))
    sampled = np.max(np.linalg.norm(sl.boundary_samples(body, 100_000) - point, axis=1))
    assert sampled - 1e-12 <= reach <= sampled + 1e-8


@pytest.mark.filterwarnings("error")
def test_validation_survives_extreme_semiaxes():
    # Squared lengths near the ends of the accepted range overflow in the
    # checks' products, or underflow; the checks must still answer, without
    # a warning, rather than raise.
    long = sl.ellipsoid((0.0, 0.0), (1e100, 1.0))
    assert _body_reach(long, np.array([0.0, 5.0])) == pytest.approx(1e100)
    rot = ((-0.34783989629645884, 0.16470794910765116, -0.922972750434822),
           (-0.6962617836885595, -0.7046603693873378, 0.13665025572506803),
           (0.6278749358903367, -0.6901630642939771, -0.35978884024529345))
    a = sl.ellipsoid((-9.928924887080912e131, 1.827449915420134e132, 7.316830099511096e131),
                     (9.9939266957888e-43, 6.20917569657432e-150, 3.2180483298148054e-149), rot)
    b = sl.ellipsoid((-0.2723946301691962, 1.1694511649228758, 0.5182316927529196),
                     (4.4275240288358395e-149, 2.3765954862076882e150, 1.0587442056482031e-150))
    # b is a needle along the y-axis that a's y-coordinate falls inside.
    gap = math.hypot(a.center[0] - b.center[0], a.center[2] - b.center[2])
    assert body_pair_distance(a, b) == pytest.approx(gap, rel=1e-12)
    # The search runs on the pair scaled to its longest semiaxis, so the
    # answer does not hang on how the solver treats inf, nor on the order.
    assert body_pair_distance(b, a) == pytest.approx(body_pair_distance(a, b), rel=1e-12)


def test_pair_distance_of_tiny_balls_far_apart():
    # Scaled to unit semiaxes, centres 2e200 apart would overflow (and warn);
    # the line of centres separates the pair, and the distance is 2e200 less
    # the radii, which is 2e200 to rounding.
    a = sl.ball((-1e200, 0.0), 1e-150)
    b = sl.ball((1e200, 0.0), 1e-150)
    n, lower, upper = _support_separation(a, b)
    assert tuple(n.tolist()) == (1.0, 0.0)
    assert lower == upper == 2e200
    assert body_pair_distance(b, a) == 2e200


def test_pair_distance_bounds_hold_where_the_ascent_stalls():
    # The semiaxes of this pair span most of the accepted range, and the
    # Newton ascent stops short of the maximum: the distance 4 lies between
    # the certified lower bound, which body_pair_distance returns, and the
    # support points' distance.
    ribbon = sl.ellipsoid((0.0, 0.0, 0.0), (7.6e-155, 1.3e154, 1.0))
    body = sl.ellipsoid((5.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    for a, b in ((ribbon, body), (body, ribbon)):
        _, lower, upper = _support_separation(a, b)
        assert 3.8 < lower <= 4.0 <= upper
        assert body_pair_distance(a, b) == lower


@pytest.mark.parametrize("axis", [1e-170, 1e-160, 1e160, 1e200, math.inf])
def test_body_refuses_semiaxes_without_finite_curvature(axis):
    # 1/s^2 overflows or underflows to 0 here, so the body's Hessian would
    # not be finite and positive definite.
    with pytest.raises(ValueError, match="1/s\\^2"):
        sl.ellipsoid((0.0, 0.0, 0.0), (axis, 1.0, 1.0))
    assert sl.ellipsoid((0.0, 0.0, 0.0), (1e-150, 1.0, 1e150)).semiaxes[0] == 1e-150


def test_curve_chain_continuity():
    with pytest.raises(ValueError):
        sl.CurveObstacle((sl.SegmentArc((0.0, 0.0), (1.0, 0.0)),
                          sl.SegmentArc((1.0, 1e-6), (2.0, 0.0))))
    chain = sl.CurveObstacle((sl.SegmentArc((0.0, 0.0), (1.0, 0.0)),
                              sl.SegmentArc((1.0, 0.0), (2.0, 1.0))))
    assert chain.non_convex


def test_curves_only_in_plane():
    with pytest.raises(ValueError):
        sl.Scene(dimension=3,
                 curves=(sl.CurveObstacle((sl.SegmentArc((0, 0), (1, 0)),)),),
                 ball_radius=10.0)


def test_curve_hit_and_both_roots():
    # A ray entering through the open side of a half-ellipse must hit the
    # far (second) root of the supporting ellipse.
    bowl = sl.CurveObstacle((sl.EllipticArc((0.0, 0.0), (2.0, 1.0), (0.0, -math.pi)),))
    scene = sl.Scene(dimension=2, curves=(bowl,), ball_radius=10.0)
    oid, hit = sl.scene_first_hit(scene, (0.0, 0.5), (0.0, -1.0))
    assert oid == 0
    assert np.allclose(hit.point, (0.0, -1.0), atol=1e-9)
    assert hit.cos_incidence <= 0.0
    # From above, the same vertical ray passes through the opening first.
    oid2, hit2 = sl.scene_first_hit(scene, (0.0, 3.0), (0.0, -1.0))
    assert np.allclose(hit2.point, (0.0, -1.0), atol=1e-9)


def test_segment_hit_normal_faces_ray():
    wall = sl.CurveObstacle((sl.SegmentArc((-1.0, 0.0), (1.0, 0.0)),))
    scene = sl.Scene(dimension=2, curves=(wall,), ball_radius=10.0)
    _, from_above = sl.scene_first_hit(scene, (0.0, 2.0), (0.0, -1.0))
    _, from_below = sl.scene_first_hit(scene, (0.0, -2.0), (0.0, 1.0))
    assert from_above.normal[1] > 0
    assert from_below.normal[1] < 0
    assert from_above.cos_incidence < 0 and from_below.cos_incidence < 0


def test_tie_break_lowest_id():
    # Contrived exact tie: both circles touch the x-axis at (2, 0), so the
    # ray grazes both at the same parameter; the lower id must win.
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((2.0, 1.0), 1.0), sl.ball((2.0, -1.0), 1.0)),
                     ball_radius=10.0)
    oid, hit = sl.scene_first_hit(scene, (-5.0, 0.0), (1.0, 0.0))
    assert oid == 0
    assert hit.grazing


def test_kernel_agrees_with_reference_intersection():
    # The planar scene kernel and the body-level reference implementation
    # must report the same hits on random rays, ellipsoids included.
    rng = np.random.default_rng(31)
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0),
                             sl.ellipsoid((2.5, 1.0), (1.4, 0.6), sl.rotation_2d(0.8)),
                             sl.ellipsoid((1.0, -3.5), (0.9, 0.5))),
                     ball_radius=10.0)
    agreements = 0
    for k in range(400):
        ang = rng.uniform(0, 2 * math.pi)
        origin = np.array([10.0 * math.cos(ang), 10.0 * math.sin(ang)])
        if k % 2 == 0:
            body = scene.bodies[rng.integers(3)]
            v = np.asarray(body.center) + rng.normal(scale=0.4, size=2) - origin
        else:
            v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        got = sl.scene_first_hit(scene, origin, v)
        best = None
        for i, body in enumerate(scene.bodies):
            h = sl.ray_intersect(body, origin, v)
            if h is not None and (best is None or h.t < best[1].t):
                best = (i, h)
        if got is None:
            assert best is None
            continue
        agreements += 1
        assert best is not None
        assert got[0] == best[0]
        assert got[1].t == pytest.approx(best[1].t, abs=1e-9)
        assert np.allclose(got[1].point, best[1].point, atol=1e-9)
        assert np.allclose(got[1].normal, best[1].normal, atol=1e-9)
    assert agreements > 50


def test_trace_off_rotated_ellipsoid_reversible():
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ellipsoid((0.0, 0.0), (2.0, 1.0), sl.rotation_2d(0.5)),),
                     ball_radius=10.0)
    probes = sl.sphere_probes(scene, 600, seed=14)
    checked = 0
    for p in probes:
        rec = sl.trace(scene, p)
        if not rec.escaped or not rec.events or rec.grazings:
            continue
        checked += 1
        assert sl.time_reverse_deviation(scene, rec) < 1e-6
    assert checked > 30


def _segment_scene(tag):
    curve = sl.CurveObstacle((sl.SegmentArc((-1.0, 0.0), (1.0, 0.0), tags=(tag,)),))
    return sl.Scene(dimension=2, curves=(curve,), ball_radius=10.0)


def _ellipse_scene(rotation):
    return sl.Scene(dimension=2, bodies=(sl.ellipsoid((0.0, 0.0), (1.5, 0.7), rotation),),
                    ball_radius=10.0)


def test_scene_digest_changes_with_geometry(two_disk_scene):
    other = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.5), 1.0)),
                     ball_radius=10.0)
    assert two_disk_scene.digest != other.digest
    again = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.0), 1.0)),
                     ball_radius=10.0)
    assert two_disk_scene.digest == again.digest
    # One arc tag, or one ulp of one rotation entry, is enough to tell apart.
    assert _segment_scene("plate").digest != _segment_scene("shell").digest
    assert _segment_scene("plate").digest == _segment_scene("plate").digest
    tilted = _ellipse_scene(sl.rotation_2d(0.3))
    nudged = sl.rotation_2d(0.3)
    nudged[0, 1] = np.nextafter(nudged[0, 1], 1.0)
    assert tilted.digest != _ellipse_scene(nudged).digest
    assert tilted.digest == _ellipse_scene(sl.rotation_2d(0.3)).digest


def test_scene_digest_is_computed_once_per_instance(two_disk_scene, monkeypatch):
    scene = sl.Scene(dimension=2, bodies=two_disk_scene.bodies, ball_radius=10.0)
    calls = []
    serialize = sl.scenefile.serialize_scene

    def counting(s):
        calls.append(s)
        return serialize(s)

    monkeypatch.setattr(sl.scenefile, "serialize_scene", counting)
    first = scene.digest
    assert scene.digest == first == two_disk_scene.digest
    assert len(calls) == 1
    # A replaced copy is a new instance with its own digest.
    moved = dataclasses.replace(scene, ball_radius=12.0)
    assert moved.digest != first
    assert len(calls) == 2
    # A pickled scene, as a process pool receives it, keeps its digest and
    # equals the original.
    again = pickle.loads(pickle.dumps(scene))
    assert again == scene and again.digest == first
    assert len(calls) == 2
    fresh = pickle.loads(pickle.dumps(sl.Scene(dimension=2, bodies=two_disk_scene.bodies,
                                               ball_radius=10.0)))
    assert fresh.digest == first


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("bad", [2.0, math.nan])
def test_single_ray_queries_refuse_non_unit_directions(d, bad):
    # A disk or ball of radius 1 at the origin, aimed at from x = -5.
    scene = sl.Scene(dimension=d, bodies=(sl.ball((0.0,) * d, 1.0),), ball_radius=10.0)
    origin = (-5.0,) + (0.0,) * (d - 1)
    direction = (bad,) + (0.0,) * (d - 1)
    with pytest.raises(ValueError, match="unit vector"):
        sl.scene_first_hit(scene, origin, direction)
    with pytest.raises(ValueError, match="unit vector"):
        sl.ray_intersect(scene.bodies[0], origin, direction)


def _unit_ball_scene(d):
    return sl.Scene(dimension=d, bodies=(sl.ball((0.0,) * d, 1.0),), ball_radius=10.0)


@pytest.mark.parametrize("call", [
    lambda b: sl.ray_intersect(b, (math.nan, 0.0), (1.0, 0.0)),
    lambda b: sl.ray_intersect(b, (-math.inf, 0.0), (1.0, 0.0)),
    lambda b: sl.scene_first_hit(sl.Scene(dimension=2, bodies=(b,)), (math.nan, 0.0), (1.0, 0.0)),
    lambda b: sl.ray_intersect(b, (-5.0, 0.0), (1.0, 0.0), t_min=math.nan),
    lambda b: sl.ray_intersect(b, (-5.0, 0.0), (1.0, 0.0), t_min=-math.inf),
], ids=["intersect-nan-origin", "intersect-inf-origin", "first-hit-nan-origin",
        "intersect-nan-t-min", "intersect-inf-t-min"])
def test_single_ray_queries_refuse_non_finite_origins_and_t_min(call):
    # A ray from a non-finite origin, or a query past a non-finite t_min, is
    # refused rather than answered as a miss.
    with pytest.raises(ValueError, match="finite"):
        call(sl.ball((0.0, 0.0), 1.0))


@pytest.mark.parametrize("call", [
    lambda: sl.trace(_unit_ball_scene(2), sl.PhaseState((-5.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
    lambda: sl.scene_first_hit(_unit_ball_scene(2), (-5.0, 0.0, 2.0), (1.0, 0.0, 0.0)),
    lambda: sl.scene_first_hit(_unit_ball_scene(3), (-5.0, 0.0), (1.0, 0.0)),
    lambda: sl.ray_intersect(_unit_ball_scene(3).bodies[0], (-5.0, 0.0), (1.0, 0.0)),
    lambda: sl.ray_intersect(_unit_ball_scene(2).bodies[0], (-5.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
], ids=["trace-3d-state-2d-scene", "first-hit-3d-ray-2d-scene", "first-hit-2d-ray-3d-scene",
        "intersect-2d-ray-3d-ball", "intersect-3d-ray-2d-disk"])
def test_single_ray_queries_refuse_rays_of_another_dimension(call):
    # A ray in another dimension than the scene or body is refused, never
    # answered from its first coordinates.
    with pytest.raises(ValueError, match="dimensional"):
        call()


@pytest.mark.parametrize("d", [2, 3])
def test_single_ray_entry_points_share_one_unit_tolerance(d):
    # 1e-10 off unit length: the planar disk formula would put the hit
    # 1.6e-9 off the unit disk, so every entry point refuses it; 1e-13 off
    # is inside UNIT_TOL = 1e-12 everywhere.
    scene = sl.Scene(dimension=d, bodies=(sl.ball((0.0,) * d, 1.0),), ball_radius=10.0)
    origin = (-5.0,) + (0.0,) * (d - 1)
    for off, refused in ((1e-10, True), (1e-13, False)):
        direction = (1.0 + off,) + (0.0,) * (d - 1)
        calls = (lambda: sl.scene_first_hit(scene, origin, direction),
                 lambda: sl.ray_intersect(scene.bodies[0], origin, direction),
                 lambda: sl.PhaseState(origin, direction))
        for call in calls:
            if refused:
                with pytest.raises(ValueError, match="unit vector"):
                    call()
            else:
                call()
