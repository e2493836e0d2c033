import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import scatterlab as sl
from scatterlab.rigidity import _nearest_distance
from oracles import hausdorff_1d_pairs

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hausdorff_1d_refuses_non_finite_times(bad):
    # max() and min() skip a NaN distance, so a NaN time once matched anything.
    for a, b in (((bad,), (1.0,)), ((1.0,), (2.0, bad)), ((bad,), ())):
        with pytest.raises(sl.ContractError, match="NaN or infinite"):
            sl.hausdorff_1d(a, b)


def test_hausdorff_1d_takes_times_whose_sum_overflows():
    # Finite times whose sum overflows still compare.
    assert sl.hausdorff_1d((1e308, 1e308), (1e308,)) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compare_cells_refuses_non_finite_times(bad):
    # Ten NaN cells against ten finite ones once read "indistinguishable",
    # with matched fraction 1.0.
    finite = [(1.0,)] * 10
    with pytest.raises(sl.ContractError, match="NaN or infinite"):
        sl.rigidity.compare_cells([(bad,)] * 10, finite, tol=1e-9)
    with pytest.raises(sl.ContractError, match="NaN or infinite"):
        sl.rigidity.compare_cells(finite, finite[:9] + [(2.0, bad)], tol=1e-9)
    with pytest.raises(sl.ContractError, match="NaN or infinite"):
        sl.rigidity.compare_cells([(), (bad,)], [(), ()], tol=1e-9)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -5e-324, math.inf, -math.inf])
def test_compare_cells_refuses_a_bad_tolerance(tol):
    # At tol = inf an empty-versus-nonempty cell once counted as matched;
    # NaN and negative tolerances read "distinguishable" for equal tables.
    with pytest.raises(sl.ContractError, match="tolerance"):
        sl.rigidity.compare_cells([(1.0,), ()], [(1.0,), (2.0,)], tol=tol)
    table = sl.samples_table(sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0),
                                                         10.0, 4))
    with pytest.raises(sl.ContractError, match="tolerance"):
        sl.compare_spectra(table, table, tol=tol)


def test_compare_cells_takes_a_zero_tolerance():
    for tol in (0.0, -0.0, 0):
        report = sl.rigidity.compare_cells([(1.0, 2.0), ()], [(2.0, 1.0), ()], tol=tol)
        assert report.matched_fraction == 1.0 and report.tol == 0.0


def test_compare_cells_refuses_misaligned_cells():
    # zip(strict=True) once raised a bare ValueError.
    with pytest.raises(sl.ContractError, match="3 cells against 2"):
        sl.rigidity.compare_cells([(1.0,)] * 3, [(1.0,)] * 2, tol=1e-9)
    with pytest.raises(sl.ContractError, match="0 cells against 1"):
        sl.rigidity.compare_cells([], [()], tol=1e-9)


# Times that meet the rule's edge cases: ties across the sides and duplicates
# within one (a small pool), signed zeros, subnormals, and +-1e308, whose
# differences overflow to inf. Cells are unsorted lists.
_EDGE_TIME = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2.0 ** -52, 2.0, 5e-324, -5e-324,
                              1e308, -1e308, 1.7976931348623157e308])
_CELL = st.lists(st.one_of(_EDGE_TIME, st.floats(-3.0, 3.0),
                           st.floats(allow_nan=False, allow_infinity=False)), max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(_CELL, min_size=n, max_size=n), st.lists(_CELL, min_size=n, max_size=n))))
@example(([[0.0]], [[-0.0]]))  # -0.0 - 0.0 is -0.0; the distance is 0.0
@example(([[1e308, 2.0]], [[-1e308]]))  # the difference overflows to inf
def test_compare_cells_matches_the_pairwise_oracle(cells):
    a, b = cells
    want = [hausdorff_1d_pairs(x, y) for x, y in zip(a, b)]
    report = sl.rigidity.compare_cells(a, b, tol=1.0)
    assert list(map(repr, report.per_cell)) == list(map(repr, want))
    assert [repr(sl.hausdorff_1d(x, y)) for x, y in zip(a, b)] == list(map(repr, want))
    assert report.sentinel_count == sum(1 for d in want if math.isinf(d))
    assert report.matched_fraction == sum(1 for d in want if d <= 1.0) / len(want)
    assert report.max_discrepancy == max([d for d in want if not math.isinf(d)], default=0.0)


def test_compare_cells_matches_the_pairwise_oracle_on_a_large_table():
    # 600 cells of up to 24 times each: some empty, some snapped to a coarse
    # grid so that times tie across the sides and repeat within one.
    rng = np.random.default_rng(7)
    cells = []
    for _ in range(2):
        side = []
        for k in range(600):
            t = rng.uniform(0.0, 40.0, rng.integers(0, 25))
            side.append(tuple((np.round(t, 1) if k % 3 == 0 else t).tolist()))
        cells.append(side)
    report = sl.rigidity.compare_cells(*cells, tol=0.05)
    want = [hausdorff_1d_pairs(x, y) for x, y in zip(*cells)]
    assert list(map(repr, report.per_cell)) == list(map(repr, want))
    assert 0 < report.sentinel_count < 600
    assert report.matched_fraction == sum(1 for d in want if d <= 0.05) / 600


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


def _probes_one_at_a_time(scene, n, rng):
    """The per-probe reference: draw u then v, reflect an outward v, and
    skip a zero v or one that still faces out."""
    center = np.asarray(scene.ball_center)
    probes = []
    while len(probes) < n:
        u = rng.normal(size=scene.dimension)
        u /= float(np.linalg.norm(u))
        x = center + scene.ball_radius * u
        v = rng.normal(size=scene.dimension)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        if float(v @ u) > -1e-9:
            v = v - 2.0 * float(v @ u) * u
        if float(v @ u) > -1e-9:
            continue
        probes.append((tuple(float(c) for c in x), tuple(float(c) for c in v)))
    return probes


def _scene_in(dimension):
    center = (1.0,) + (0.0,) * (dimension - 1)
    return sl.Scene(dimension=dimension, bodies=(sl.ball(center, 2.0),), ball_radius=10.0)


@pytest.mark.parametrize("dimension", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 19])
def test_sphere_probes_match_one_at_a_time(dimension, seed):
    scene = _scene_in(dimension)
    probes = sl.sphere_probes(scene, 500, seed)
    expected = _probes_one_at_a_time(scene, 500, np.random.default_rng(seed))
    assert [(p.point, p.direction) for p in probes] == expected


class _RiggedNormals:
    """Wraps a generator so that its stream of normals has the v draw of
    some candidates zeroed and of others turned tangent to u, however the
    stream is requested; each candidate takes 2d draws, u then v."""

    def __init__(self, rng, dimension, zero, tangent):
        self.rng = rng
        self.d, self.zero, self.tangent = dimension, zero, tangent
        self.drawn = []

    def normal(self, size):
        block = self.rng.normal(size=size).ravel()
        for j in range(block.size):
            k, r = divmod(len(self.drawn), 2 * self.d)
            if r >= self.d and k in self.zero:
                block[j] = 0.0
            elif r >= self.d and k in self.tangent:
                u0, u1 = self.drawn[2 * self.d * k:2 * self.d * k + 2]
                block[j] = (-u1, u0, 0.0, 0.0)[r - self.d]
            self.drawn.append(block[j])
        return block.reshape(size)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_sphere_probes_refill_dropped_candidates(monkeypatch, dimension):
    scene = _scene_in(dimension)
    rigged = dict(dimension=dimension, zero={1, 40, 41}, tangent={3, 57, 58, 59})
    real = np.random.default_rng
    expected = _probes_one_at_a_time(scene, 60, _RiggedNormals(real(4), **rigged))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _RiggedNormals(real(seed), **rigged))
    probes = sl.sphere_probes(scene, 60, 4)
    assert [(p.point, p.direction) for p in probes] == expected


def test_empty_probe_families_are_refused(three_disk_scene):
    for n in (0, -3):
        with pytest.raises(sl.ContractError, match="at least one ray"):
            sl.sphere_probes(three_disk_scene, n, seed=1)
    with pytest.raises(sl.ContractError, match="no probes"):
        sl.reflection_count_probe(three_disk_scene, three_disk_scene, [])


def test_probe_refuses_mismatched_dimensions(disk_scene, ball_ellipsoid_scene):
    probes_3d = sl.sphere_probes(ball_ellipsoid_scene, 20, seed=1)
    probes_2d = sl.sphere_probes(disk_scene, 20, seed=1)
    for a, b, probes in ((ball_ellipsoid_scene, disk_scene, probes_3d),
                         (disk_scene, ball_ellipsoid_scene, probes_2d),
                         (disk_scene, disk_scene, probes_3d),
                         (ball_ellipsoid_scene, ball_ellipsoid_scene, probes_2d)):
        with pytest.raises(sl.ContractError, match="dimension"):
            sl.reflection_count_probe(a, b, probes)


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


@pytest.mark.parametrize("scene_name", ["disk_scene", "three_disk_scene",
                                        "ball_ellipsoid_scene"])
def test_coverage_marks_the_traced_probes(request, scene_name):
    scene = request.getfixturevalue(scene_name)
    eps = 0.05
    report = sl.accessible_coverage(scene, 400, eps, seed=9)
    marks = {i: [] for i in range(len(scene.bodies))}
    escaped = 0
    for p in sl.sphere_probes(scene, 400, 9):
        rec = sl.trace(scene, p)
        if rec.escaped:
            escaped += 1
            for e in rec.events:
                if not e.grazing:
                    marks[e.obstacle].append(e.point)
    assert (report.n_escaped, report.n_cutoff) == (escaped, 400 - escaped)
    assert all(marks.values())
    unreached = dict(report.unreached)
    for i, body in enumerate(scene.bodies):
        samples = sl.boundary_samples(body, 2048)
        dist = cKDTree(np.asarray(marks[i])).query(samples)[0]
        assert report.body_coverage[i] == float(np.mean(dist <= eps))
        assert np.array_equal(unreached.get(i, samples[:0]), samples[dist > eps])


@pytest.mark.parametrize("n_rays, eps", [(0, 0.05), (-1, 0.05), (10, 0.0), (10, -0.1),
                                         (10, math.nan), (10, math.inf)])
def test_degenerate_coverage_input_is_refused(disk_scene, n_rays, eps):
    with pytest.raises(sl.ContractError):
        sl.accessible_coverage(disk_scene, n_rays, eps, seed=1)


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


def test_reconstruct_refuses_sojourn_tables(disk_scene):
    # One-bounce sojourn samples carry no endpoints or travelling times.
    table = sl.scan_sls(disk_scene, (1.0, 0.0), 16)
    assert any(s.reflections == 1 for s in table.samples)
    with pytest.raises(sl.ContractError):
        sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)


@pytest.mark.parametrize("center, radius, message", [
    ((0.0, math.nan), 10.0, r"radius > 0: \[0.0, nan\], 10.0"),
    ((math.inf, 0.0), 10.0, r"radius > 0: \[inf, 0.0\], 10.0"),
    ((0.0, 0.0), math.nan, "radius > 0: .*, nan"),
    ((0.0, 0.0), math.inf, "radius > 0: .*, inf"),
    ((0.0, 0.0), -1.0, "radius > 0: .*, -1.0"),
    ((0.0, 0.0), 0.0, "radius > 0: .*, 0.0"),
    ((), 10.0, "a 0-d centre for 2-d samples"),
    ((0.0, 0.0, 0.0), 10.0, "a 3-d centre for 2-d samples")])
def test_reconstruct_refuses_a_bad_ball(center, radius, message):
    table = sl.samples_table(sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 8))
    with pytest.raises(sl.ContractError, match=message):
        sl.reconstruct_boundary(table, center, radius)


def test_reconstruct_coverage_field():
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 500)
    table = sl.samples_table(samples)
    gt = sl.boundary_samples(sl.ball((0.0, 0.0), 1.0), 512)
    est = sl.reconstruct_boundary(table, (0.0, 0.0), 10.0)
    # Share of the boundary samples within 0.05 of a reconstructed point.
    coverage = np.mean(cKDTree(est.points).query(gt)[0] <= 0.05)
    assert coverage > 0.95


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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_y", [300, 70_000])
def test_nearest_distance_matches_kdtree(d, n_y):
    # 70,000 rows of y are more than one block of 2^16 distances holds, so
    # each block then has one row of x; at 300 rows x spans three blocks.
    rng = np.random.default_rng(d * n_y)
    x = rng.normal(size=(500, d))
    y = rng.normal(size=(n_y, d))
    assert np.array_equal(_nearest_distance(x, y), cKDTree(y).query(x)[0])


def test_nearest_distance_pins_the_eps_boundary():
    # (0.375, 0.5) lies exactly 0.625 from the origin in binary arithmetic.
    # Coverage counts a sample at distance eps as reached, and one a little
    # farther as unreached.
    eps = 0.625
    y = np.array([[0.375, 0.5], [3.0, 3.0]])
    x = np.array([[0.0, 0.0], [0.0, -2.0**-40]])
    got = _nearest_distance(x, y)
    assert np.array_equal(got, cKDTree(y).query(x)[0])
    assert got[0] == eps < got[1]


@pytest.mark.parametrize("d", [2, 3])
def test_point_set_hausdorff_matches_kdtree(d):
    rng = np.random.default_rng(d)
    a, b = rng.normal(size=(700, d)), rng.normal(size=(1500, d)) + 0.1
    want = max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())
    assert sl.point_set_hausdorff(a, b) == want
    assert sl.point_set_hausdorff(b, a) == want
    empty = np.empty((0, d))
    assert sl.point_set_hausdorff(empty, empty) == 0.0
    assert math.isinf(sl.point_set_hausdorff(empty, b))
    assert math.isinf(sl.point_set_hausdorff(a, empty))


def _kdtree_distance(x, y):
    return cKDTree(y).query(x)[0]


@pytest.mark.parametrize("variant, seed", [("disk", 17), ("bump", 19)])
def test_coverage_matches_kdtree_on_criterion_10_scenes(monkeypatch, variant, seed):
    # The 100,000-ray runs of criterion 10, once as the package computes them
    # and once with every nearest-mark query answered by a KD-tree.
    scene = (sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),), ball_radius=10.0)
             if variant == "disk" else sl.build_livshits_scene(sl.LivshitsParams(), "bump"))
    got = sl.accessible_coverage(scene, 100_000, 0.05, seed=seed)
    monkeypatch.setattr("scatterlab.rigidity._nearest_distance", _kdtree_distance)
    want = sl.accessible_coverage(scene, 100_000, 0.05, seed=seed)
    assert (got.body_coverage, got.arc_coverage) == (want.body_coverage, want.arc_coverage)
    assert [oid for oid, _ in got.unreached] == [oid for oid, _ in want.unreached]
    assert [p.tobytes() for _, p in got.unreached] == [p.tobytes() for _, p in want.unreached]
    assert any(p.size for _, p in got.unreached) == (variant == "bump")


# ---------------------------------------------------------------------------
# Livshits demonstration
# ---------------------------------------------------------------------------

def test_livshits_param_validation():
    with pytest.raises(TypeError):
        sl.LivshitsParams(semi_major=0.5)
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


@pytest.mark.parametrize("field", ["n_offsets", "n_angles", "n_focal"])
def test_livshits_demo_refuses_runs_without_rays(field):
    params = sl.LivshitsParams(n_offsets=4, n_angles=4, n_focal=4)
    with pytest.raises(sl.ContractError, match="at least one"):
        sl.livshits_demo(dataclasses.replace(params, **{field: 0}))


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


# ---------------------------------------------------------------------------
# Ray families against one-ray-at-a-time references
# ---------------------------------------------------------------------------
# Each reference traces every ray alone through trace, as the families did
# before they were traced in lockstep batches.

def _reflections_one_at_a_time(scene, probes):
    return [sl.trace(scene, p).reflections for p in probes]


def test_probe_counts_match_one_at_a_time(three_disk_scene):
    rot = sl.rotation_2d(0.4)
    rotated = sl.Scene(dimension=2, bodies=tuple(sl.ball(rot @ b._c, 1.0)
                                                 for b in three_disk_scene.bodies),
                       ball_radius=10.0)
    probes = sl.sphere_probes(three_disk_scene, 600, 5)
    report = sl.reflection_count_probe(three_disk_scene, rotated, probes)
    want = tuple(zip(_reflections_one_at_a_time(three_disk_scene, probes),
                     _reflections_one_at_a_time(rotated, probes)))
    assert report.counts == want
    assert {n for pair in want for n in pair} >= {0, 1, 2}
    assert any(a != b for a, b in want)


def _coverage_one_at_a_time(scene, n_rays, eps, seed):
    nb = len(scene.bodies)
    marks = {}
    n_escaped = n_cutoff = 0
    for p in sl.sphere_probes(scene, n_rays, seed):
        rec = sl.trace(scene, p)
        if not rec.escaped:
            n_cutoff += 1
            continue
        n_escaped += 1
        for e in rec.events:
            if not e.grazing:
                marks.setdefault(e.obstacle if e.obstacle < nb else (e.obstacle, e.arc),
                                 []).append(e.point)

    def covered(samples, key):
        if key not in marks:
            return 0.0, samples
        dist = cKDTree(np.asarray(marks[key])).query(samples)[0]
        return float(np.mean(dist <= eps)), samples[dist > eps]

    body_cov, arc_cov, unreached = [], [], []
    for i, body in enumerate(scene.bodies):
        frac, missed = covered(sl.boundary_samples(body, 2048), i)
        body_cov.append(frac)
        if missed.size:
            unreached.append((i, missed))
    for ci, curve in enumerate(scene.curves):
        for ai, arc in enumerate(curve.arcs):
            frac, missed = covered(arc.sample(max(8, 2048 // len(curve.arcs))), (nb + ci, ai))
            arc_cov.append((nb + ci, ai, tuple(sorted(arc.tags)), frac))
            if missed.size:
                unreached.append((nb + ci, missed))
    return tuple(body_cov), tuple(arc_cov), unreached, n_escaped, n_cutoff


@pytest.mark.parametrize("scene_name", ["three_disk_scene", "livshits_bump"])
def test_coverage_matches_one_at_a_time(request, scene_name):
    if scene_name == "livshits_bump":
        scene = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    else:
        scene = request.getfixturevalue(scene_name)
    report = sl.accessible_coverage(scene, 800, 0.05, seed=21)
    body_cov, arc_cov, unreached, n_escaped, n_cutoff = _coverage_one_at_a_time(
        scene, 800, 0.05, 21)
    assert (report.body_coverage, report.arc_coverage) == (body_cov, arc_cov)
    assert (report.n_escaped, report.n_cutoff) == (n_escaped, n_cutoff)
    assert [i for i, _ in report.unreached] == [i for i, _ in unreached]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(report.unreached, unreached))
    assert any(0.0 < c < 1.0 for c in body_cov + tuple(c for *_, c in arc_cov))


def _livshits_one_at_a_time(params, scenes):
    """hidden hits, underside hits, focal error, largest exit crossing and the
    aperture cells per scene, each ray traced alone."""
    c = params.focal_half_distance
    span = params.offset_span * c
    amax = math.radians(params.angle_span_deg)
    hidden, underside, cells, max_exit = [], [], [], 0.0
    for scene in scenes:
        nb = len(scene.bodies)
        hidden_ids = {nb + ci for ci, cv in enumerate(scene.curves) if "hidden" in cv.tags()}
        plates = {(nb + ci, ai) for ci, cv in enumerate(scene.curves)
                  for ai, arc in enumerate(cv.arcs) if "plate" in arc.tags}
        h = u_hits = 0
        table = []
        for i in range(params.n_offsets):
            x0 = -span + 2.0 * span * (i + 0.5) / params.n_offsets
            for j in range(params.n_angles):
                phi = -amax + 2.0 * amax * (j + 0.5) / params.n_angles
                u = (math.sin(phi), -math.cos(phi))
                rec = sl.trace(scene, sl.PhaseState((x0, 0.0), u))
                incoming = u
                for e in rec.events:
                    h += e.obstacle in hidden_ids
                    u_hits += (e.obstacle, e.arc) in plates and incoming[1] > 0.0
                    incoming = e.direction_after
                if rec.events:
                    (px, py), (dx, dy) = rec.events[-1].point, rec.events[-1].direction_after
                    if dy > 0.0:
                        max_exit = max(max_exit, abs(px + (-py / dy) * dx))
                table.append((rec.total_length,) if rec.escaped else ())
        hidden.append(h)
        underside.append(u_hits)
        cells.append(table)
    focal = 0.0
    for j in range(params.n_focal):
        phi = math.radians(-80.0 + 160.0 * (j + 0.5) / params.n_focal)
        first = sl.trace(scenes[0], sl.PhaseState((-c, 0.0), (math.sin(phi), -math.cos(phi))))
        (px, py), (dx, dy) = first.events[0].point, first.events[0].direction_after
        r = np.array([c, 0.0]) - np.array([px, py])
        focal = max(focal, abs(dx * r[1] - dy * r[0]) / math.hypot(dx, dy))
    return tuple(hidden), tuple(underside), focal, max_exit, cells


def _lowered_livshits_scene(params, variant):
    """The demo scene with its curves 0.1 lower and the cavity tagged hidden,
    so that aperture rays hit plates from above and below and every cavity
    event counts as a hidden hit."""
    scene = sl.build_livshits_scene(params, variant)

    def lower(arc, tags):
        if isinstance(arc, sl.SegmentArc):
            return sl.SegmentArc((arc.start[0], arc.start[1] - 0.1),
                                 (arc.end[0], arc.end[1] - 0.1), tags)
        return sl.EllipticArc((arc.center[0], arc.center[1] - 0.1), arc.semiaxes,
                              arc.angles, tags)

    curves = [sl.CurveObstacle(tuple(lower(a, a.tags | ({"hidden"} if k == 0 else set()))
                                     for a in cv.arcs))
              for k, cv in enumerate(scene.curves)]
    return sl.Scene(dimension=2, curves=tuple(curves), ball_radius=scene.ball_radius)


@pytest.mark.parametrize("lowered", [False, True], ids=["demo", "lowered"])
def test_livshits_demo_matches_one_at_a_time(monkeypatch, lowered):
    params = sl.LivshitsParams(n_offsets=30, n_angles=25, n_focal=60)
    if lowered:
        monkeypatch.setattr(sl.rigidity, "build_livshits_scene", _lowered_livshits_scene)
    report = sl.livshits_demo(params)
    hidden, underside, focal, max_exit, cells = _livshits_one_at_a_time(params, report.scenes)
    assert (report.hidden_hits, report.plate_underside_hits) == (hidden, underside)
    assert report.focal_max_error == focal
    assert report.max_abs_exit_crossing == max_exit
    # Curve events follow the planar kernel's arithmetic, so the cells are
    # bitwise those of single traces.
    assert [list(t.cells) for t in report.tables] == cells
    assert report.comparison == sl.rigidity.compare_cells(*cells, tol=1e-6 * params.ball_radius)
    if lowered:
        assert min(hidden + underside) > 0 and focal > 1e-3
    else:
        assert (hidden, underside) == ((0, 0), (0, 0))


def test_ray_families_trace_in_lockstep(three_disk_scene, monkeypatch):
    # Every family makes one batched trace per scene it traces and never
    # falls back to tracing rays one at a time: the library has no other
    # tracer, and the batch sizes count every ray.
    calls = []
    many = sl.dynamics._trace_many

    def counting_many(scene, O, U):
        calls.append(len(O))
        return many(scene, O, U)

    for module in (sl.dynamics, sl.spectra, sl.rigidity):
        monkeypatch.setattr(module, "_trace_many", counting_many)
    bump = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    sl.scan_sls(three_disk_scene, (1.0, 0.0), 64)
    assert calls == [64]
    probes = sl.sphere_probes(three_disk_scene, 50, 1)
    sl.reflection_count_probe(three_disk_scene, three_disk_scene, probes)
    assert calls[1:] == [50, 50]
    sl.accessible_coverage(bump, 70, 0.05, seed=2)
    assert calls[3:] == [70]
    sl.livshits_demo(sl.LivshitsParams(n_offsets=6, n_angles=5, n_focal=9))
    assert calls[4:] == [30, 30, 9]
