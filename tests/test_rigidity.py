import math

import numpy as np
import pytest

import scatterlab as sl

# ---------------------------------------------------------------------------
# Finite-set Hausdorff and spectrum comparison
# ---------------------------------------------------------------------------

def test_hausdorff_1d_cases():
    assert sl.hausdorff_1d((), ()) == 0.0
    assert math.isinf(sl.hausdorff_1d((), (1.0,)))
    assert sl.hausdorff_1d((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert sl.hausdorff_1d((0.0,), (3.0,)) == 3.0
    assert sl.hausdorff_1d((0.0, 10.0), (0.1, 10.0)) == pytest.approx(0.1)


def test_compare_self_identity(two_disk_scene):
    table = sl.travelling_time_spectrum(two_disk_scene, n_points=10)
    report = sl.compare_spectra(table, table, tol=1e-12)
    assert report.matched_fraction == 1.0
    assert report.max_discrepancy == 0.0
    assert report.sentinel_count == 0
    assert report.verdict == "indistinguishable"


def test_compare_translated_disk_distinguishable(two_disk_scene):
    moved = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((4.0, 0.0), 1.0)),
                     ball_radius=10.0)
    ta = sl.travelling_time_spectrum(two_disk_scene, n_points=16)
    tb = sl.travelling_time_spectrum(moved, n_points=16)
    report = sl.compare_spectra(ta, tb, tol=1e-8)
    assert report.verdict == "distinguishable"
    assert report.max_discrepancy > 0.1


def test_compare_without_cells_is_refused():
    # No cells means no matched fraction, so no verdict either way.
    empty = sl.samples_table([])
    with pytest.raises(sl.ContractError, match="no cells"):
        sl.compare_spectra(empty, empty, tol=1e-9)
    with pytest.raises(sl.ContractError, match="no cells"):
        sl.rigidity.compare_cells((), (), tol=1e-9)


def test_compare_body_order_independent():
    a = sl.Scene(dimension=2,
                 bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 1.0), 1.0)),
                 ball_radius=10.0)
    b = sl.Scene(dimension=2,
                 bodies=(sl.ball((3.0, 1.0), 1.0), sl.ball((-3.0, 0.0), 1.0)),
                 ball_radius=10.0)
    ta = sl.travelling_time_spectrum(a, n_points=10)
    tb = sl.travelling_time_spectrum(b, n_points=10)
    report = sl.compare_spectra(ta, tb, tol=1e-9)
    assert report.matched_fraction == 1.0


def test_isometry_equivariance(two_disk_scene):
    angle = 0.7
    rot = sl.rotation_2d(angle)
    rotated = sl.Scene(dimension=2,
                       bodies=tuple(sl.ball(tuple(rot @ np.asarray(b.center)), 1.0)
                                    for b in two_disk_scene.bodies),
                       ball_radius=10.0)
    ta = sl.travelling_time_spectrum(two_disk_scene, n_points=12)
    tb = sl.travelling_time_spectrum(rotated, n_points=12, phase=angle)
    assert len(ta.cells) == len(tb.cells)
    for ca, cb in zip(ta.cells, tb.cells):
        assert len(ca) == len(cb)
        for va, vb in zip(ca, cb):
            assert abs(va - vb) < 1e-9


# ---------------------------------------------------------------------------
# Reflection-count probes
# ---------------------------------------------------------------------------

def test_probe_self_symmetry(three_disk_scene):
    probes = sl.sphere_probes(three_disk_scene, 200, seed=5)
    report = sl.reflection_count_probe(three_disk_scene, three_disk_scene, probes)
    assert report.equal_fraction == 1.0


def test_probe_rotation_equivariance(two_disk_scene):
    angle = 1.1
    rot = sl.rotation_2d(angle)
    rotated = sl.Scene(dimension=2,
                       bodies=tuple(sl.ball(tuple(rot @ np.asarray(b.center)), 1.0)
                                    for b in two_disk_scene.bodies),
                       ball_radius=10.0)
    probes = sl.sphere_probes(two_disk_scene, 300, seed=8)
    counts_a = [sl.trace(two_disk_scene, p).reflections for p in probes]
    rotated_probes = [sl.PhaseState(tuple(rot @ np.asarray(p.point)),
                                    tuple(rot @ np.asarray(p.direction)))
                      for p in probes]
    counts_b = [sl.trace(rotated, p).reflections for p in rotated_probes]
    assert counts_a == counts_b


def test_probe_disk_visible_from_one_side(two_disk_scene):
    # A probe aimed only at the shared left disk sees equal counts even if
    # the second scene drops the right disk entirely.
    one_disk = sl.Scene(dimension=2, bodies=(sl.ball((-3.0, 0.0), 1.0),),
                        ball_radius=10.0)
    probes = [sl.PhaseState((-10.0, 0.0), (1.0, 0.0))]
    report = sl.reflection_count_probe(two_disk_scene, one_disk, probes)
    assert report.counts == ((1, 1),)
    assert report.equal_fraction == 1.0


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def test_coverage_empty_scene(empty_scene):
    report = sl.accessible_coverage(empty_scene, 100, 0.05, seed=1)
    assert report.body_coverage == ()
    assert report.arc_coverage == ()


def test_coverage_single_disk_grows(disk_scene):
    report = sl.accessible_coverage(disk_scene, 20_000, 0.05, seed=3)
    assert report.body_coverage[0] > 0.99
    assert report.n_escaped == 20_000


def test_coverage_unreached_atlas(two_disk_scene):
    report = sl.accessible_coverage(two_disk_scene, 300, 0.02, seed=7)
    assert 0.0 <= report.body_coverage[0] <= 1.0
    for oid, pts in report.unreached:
        assert pts.ndim == 2


# ---------------------------------------------------------------------------
# Boundary reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_ideal_disk_samples_exact():
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 400)
    table = sl.samples_table(samples)
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    assert len(est.points) == 400
    assert est.skipped == 0
    radii = np.linalg.norm(est.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8


def test_reconstruct_off_center_disk_exact():
    samples = sl.ideal_one_bounce_samples((2.0, -1.0), 0.7, (0.0, 0.0), 10.0, 300)
    table = sl.samples_table(samples)
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    radii = np.linalg.norm(est.points - np.array([2.0, -1.0]), axis=1)
    assert np.max(np.abs(radii - 0.7)) < 1e-8


def test_reconstruct_ignores_free_rays():
    free = sl.TravellingTimeSample(
        pair=0, x=(-10.0, 0.0), y=(10.0, 0.0), t=20.0, reflections=0,
        dir_in=(1.0, 0.0), dir_out=(1.0, 0.0), residual=0.0, itinerary=())
    table = sl.samples_table([free])
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    assert len(est.points) == 0
    assert est.skipped == 0


def test_reconstruct_skips_inconsistent_samples():
    bogus = sl.TravellingTimeSample(
        pair=0, x=(-10.0, 0.0), y=(10.0, 0.0), t=19.0, reflections=1,
        dir_in=(1.0, 0.0), dir_out=(1.0, 0.0), residual=0.0, itinerary=(0,))
    table = sl.samples_table([bogus])
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    assert len(est.points) == 0
    assert est.skipped == 1


def test_reconstruct_coverage_field():
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 500)
    table = sl.samples_table(samples)
    gt = sl.boundary_samples(sl.ball((0.0, 0.0), 1.0), 512)
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0, ground_truth=gt,
                                  coverage_eps=0.05)
    assert est.coverage is not None
    assert est.coverage > 0.95


def test_reconstruct_from_traced_spectrum(disk_scene):
    table = sl.travelling_time_spectrum(disk_scene, n_points=24)
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    assert len(est.points) > 50
    radii = np.linalg.norm(est.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-4


def test_point_set_hausdorff():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert sl.point_set_hausdorff(a, b) == pytest.approx(0.5)
    assert sl.point_set_hausdorff(a, a) == 0.0
    assert math.isinf(sl.point_set_hausdorff(a, np.empty((0, 2))))


# ---------------------------------------------------------------------------
# Livshits demonstration
# ---------------------------------------------------------------------------

def test_livshits_param_validation():
    with pytest.raises(sl.ContractError):
        sl.LivshitsParams(semi_major=0.5).validate()
    with pytest.raises(sl.ContractError):
        sl.LivshitsParams(lip_margin=0.0).validate()
    with pytest.raises(sl.ContractError):
        sl.build_livshits_scene(sl.LivshitsParams(), "wiggle")


def test_livshits_scenes_validate():
    params = sl.LivshitsParams()
    for variant in ("bump", "flat"):
        scene = sl.build_livshits_scene(params, variant)
        assert sl.validate_scene(scene).ok
        assert all(c.non_convex for c in scene.curves)
    bump = sl.build_livshits_scene(params, "bump")
    flat = sl.build_livshits_scene(params, "flat")
    assert bump.digest != flat.digest


def test_livshits_focal_property_oracle():
    # Classical conic property, measured independently of the tracer: a ray
    # from one focus reflects off the ellipse into a line through the other.
    params = sl.LivshitsParams()
    scene = sl.build_livshits_scene(params, "flat")
    c = params.focal_half_distance
    rng = np.random.default_rng(2)
    for _ in range(100):
        phi = rng.uniform(math.radians(-75), math.radians(75))
        u = (math.sin(phi), -math.cos(phi))
        rec = sl.trace(scene, sl.PhaseState((-c, 0.0), u))
        assert rec.events
        p = np.asarray(rec.events[0].point)
        d = np.asarray(rec.events[0].direction_after)
        to_b = np.array([c, 0.0]) - p
        assert abs(d[0] * to_b[1] - d[1] * to_b[0]) < 1e-9


def test_livshits_exit_between_foci():
    params = sl.LivshitsParams()
    scene = sl.build_livshits_scene(params, "flat")
    c = params.focal_half_distance
    phi = math.radians(30.0)
    rec = sl.trace(scene, sl.PhaseState((0.4 * c, 0.0),
                                        (math.sin(phi), -math.cos(phi))))
    assert rec.events
    p = np.asarray(rec.events[0].point)
    d = np.asarray(rec.events[0].direction_after)
    assert d[1] > 0
    s = -p[1] / d[1]
    x_exit = p[0] + s * d[0]
    assert abs(x_exit) < c


def test_livshits_demo_small():
    params = sl.LivshitsParams(n_offsets=60, n_angles=60, n_focal=100)
    report = sl.livshits_demo(params)
    assert report.hidden_hits == (0, 0)
    assert report.plate_underside_hits == (0, 0)
    assert report.focal_max_error < 1e-9
    assert report.exits_between_foci
    assert report.comparison.matched_fraction == 1.0
    assert report.comparison.verdict == "indistinguishable"


def test_livshits_hidden_arcs_unreachable_small():
    params = sl.LivshitsParams()
    scene = sl.build_livshits_scene(params, "bump")
    report = sl.accessible_coverage(scene, 4000, 0.05, seed=13)
    hidden = report.coverage_of_tag("hidden")
    assert hidden and all(c == 0.0 for c in hidden)
    # The outer structure is reachable: the bowl and shell see plenty.
    assert any(c > 0.2 for (_, _, tags, c) in report.arc_coverage
               if "bowl" in tags or "shell" in tags)
