"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.cli import run_command
from scatterlab.scenefile import serialize_scene
from oracles import blocked_pair, circle_pair, fermat_circle_times


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def three_disks():
    return sl.Scene(dimension=2,
                    bodies=(sl.ball((3.2, 0.0), 1.0),
                            sl.ball((-1.6, 2.8), 1.0),
                            sl.ball((-1.6, -2.8), 1.0)),
                    ball_radius=10.0)


def test_criterion_1_free_ray_sojourn():
    t0 = time.time()
    scene = sl.Scene(dimension=2, ball_radius=10.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x = (10.0 * math.cos(ang), 10.0 * math.sin(ang))
        beta = rng.uniform(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3)
        m = (-math.cos(ang), -math.sin(ang))
        mp = (-m[1], m[0])
        u = (math.cos(beta) * m[0] + math.sin(beta) * mp[0],
             math.cos(beta) * m[1] + math.sin(beta) * mp[1])
        rec = sl.trace(scene, sl.PhaseState(x, u))
        worst = max(worst, abs(sl.sojourn_time(scene, rec, u, u)))
    elapsed = time.time() - t0
    _report(1, worst < 1e-9 and elapsed < 1.0,
            f"1000 free rays, max |T| = {worst:.3g}, {elapsed:.2f} s")


def test_criterion_2_backscatter_sojourn():
    scene = sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                     ball_radius=10.0)
    rec = sl.trace(scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t = sl.sojourn_time(scene, rec, (1.0, 0.0), (-1.0, 0.0))
    _report(2, abs(t + 2.0) < 1e-9, f"head-on sojourn T = {t:.12f} (want -2)")


def test_criterion_3_ball_independence():
    scene = sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                     ball_radius=10.0)
    rec = sl.trace(scene, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t1 = sl.sojourn_time(scene, rec, (1.0, 0.0), (-1.0, 0.0))
    doubled = dataclasses.replace(scene, ball_radius=20.0)
    rec2 = sl.trace(doubled, sl.PhaseState((-10.0, 0.0), (1.0, 0.0)))
    t2 = sl.sojourn_time(doubled, rec2, (1.0, 0.0), (-1.0, 0.0))
    _report(3, abs(t1 - t2) < 1e-9, f"|T(a) - T(2a)| = {abs(t1 - t2):.3g}")


def test_criterion_4_reflection_law_and_reversibility(three_disks):
    t0 = time.time()
    probes = sl.sphere_probes(three_disks, 8000, seed=11)
    n = 0
    worst_cons = 0.0
    worst_dev = 0.0
    for p in probes:
        rec = sl.trace(three_disks, p)
        if not rec.escaped or not rec.events:
            continue
        n += 1
        if n > 1000:
            break
        v_in = np.asarray(rec.initial.direction)
        for e in rec.events:
            v_out = np.asarray(e.direction_after)
            nn = np.asarray(e.normal)
            if not e.grazing:
                worst_cons = max(worst_cons, abs(v_out @ nn + v_in @ nn))
                t_in = v_in - (v_in @ nn) * nn
                t_out = v_out - (v_out @ nn) * nn
                worst_cons = max(worst_cons, float(np.max(np.abs(t_in - t_out))))
            v_in = v_out
        worst_dev = max(worst_dev, sl.time_reverse_deviation(three_disks, rec))
    elapsed = time.time() - t0
    _report(4, n > 1000 and worst_cons < 1e-12 and worst_dev < 1e-6
            and elapsed < 10.0,
            f"{min(n, 1000)} escaped trajectories, reflection identity "
            f"{worst_cons:.3g}, reversal deviation {worst_dev:.3g}, {elapsed:.1f} s")


def test_criterion_5_fermat_consistency():
    t0 = time.time()
    scene = sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                     ball_radius=10.0)
    rng = np.random.default_rng(55)
    # Part A: 100 blocked pairs. A single convex obstacle shadows them
    # absolutely, so both the tracer and the brute-force oracle must agree
    # the travelling-time set is empty (the criterion holds with nothing
    # left unexplained rather than vacuously).
    shadow_half_angle = 2.0 * math.asin(0.1)
    blocked_checked = 0
    for _ in range(100):
        a1 = rng.uniform(0.0, 2.0 * math.pi)
        delta = rng.uniform(0.02 * shadow_half_angle, 0.95 * shadow_half_angle)
        a2 = a1 + math.pi + delta * rng.choice([-1.0, 1.0])
        x, y = circle_pair(10.0, a1, a2)
        assert blocked_pair((0.0, 0.0), 1.0, x, y)
        samples = sl.find_xy_geodesics(scene, x, y)
        # Emptiness cross-check: no valid interior stationary configuration
        # exists either (a quarter-resolution scan settles a yes/no question).
        oracle = fermat_circle_times((0.0, 0.0), 1.0, x, y, n=250_000)
        if not (samples == [] and len(oracle) == 0):
            _report(5, False, f"blocked pair {x}, {y} produced samples")
        blocked_checked += 1
    # Part B: every 1-reflection travelling time on pairs that have them
    # matches the 1e6-point boundary minimization within 1e-6.
    worst = 0.0
    matched = 0
    for _ in range(100):
        a1 = rng.uniform(0.0, 2.0 * math.pi)
        a2 = a1 + rng.uniform(0.3, math.pi - 0.3) * rng.choice([-1.0, 1.0])
        x, y = circle_pair(10.0, a1, a2)
        one = sorted(s.t for s in sl.find_xy_geodesics(scene, x, y)
                     if s.reflections == 1)
        oracle = fermat_circle_times((0.0, 0.0), 1.0, x, y, n=1_000_000)
        if len(one) != len(oracle):
            _report(5, False, f"sample/oracle count mismatch at {x}, {y}")
        for t_got, t_ref in zip(one, oracle):
            matched += 1
            worst = max(worst, abs(t_got - t_ref))
    elapsed = time.time() - t0
    _report(5, blocked_checked == 100 and matched > 50 and worst < 1e-6
            and elapsed < 60.0,
            f"100 blocked pairs empty (oracle agrees); {matched} one-bounce "
            f"times match brute force, worst {worst:.3g}, {elapsed:.1f} s")


def test_criterion_6_reflection_count_rotation(three_disks):
    t0 = time.time()
    angle = 0.83
    rot = sl.rotation_2d(angle)
    rotated = sl.Scene(dimension=2,
                       bodies=tuple(sl.ball(tuple(rot @ np.asarray(b.center)), 1.0)
                                    for b in three_disks.bodies),
                       ball_radius=10.0)
    probes = sl.sphere_probes(three_disks, 1000, seed=23)
    counts_a = [sl.trace(three_disks, p).reflections for p in probes]
    rotated_probes = [sl.PhaseState(tuple(rot @ np.asarray(p.point)),
                                    tuple(rot @ np.asarray(p.direction)))
                      for p in probes]
    counts_b = [sl.trace(rotated, p).reflections for p in rotated_probes]
    equal = sum(1 for a, b in zip(counts_a, counts_b) if a == b)
    elapsed = time.time() - t0
    _report(6, equal == 1000 and elapsed < 10.0,
            f"{equal}/1000 probes have equal reflection counts, {elapsed:.1f} s")


def test_criterion_7_rigidity_contrapositive():
    t0 = time.time()
    a = 10.0
    scene = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.0), 1.0)),
                     ball_radius=a)
    moved = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((4.0, 0.0), 1.0)),
                     ball_radius=a)
    table_a = sl.travelling_time_spectrum(scene, n_points=64)
    table_b = sl.travelling_time_spectrum(moved, n_points=64)
    diff = sl.compare_spectra(table_a, table_b, tol=1e-9)
    table_a2 = sl.travelling_time_spectrum(scene, n_points=64)
    same = sl.compare_spectra(table_a, table_a2, tol=1e-9)
    elapsed = time.time() - t0
    ok = (diff.verdict == "distinguishable" and diff.max_discrepancy > 0.01 * a
          and same.matched_fraction == 1.0 and elapsed < 300.0)
    _report(7, ok,
            f"translated disk: {diff.verdict}, max discrepancy "
            f"{diff.max_discrepancy:.3f} (> {0.01 * a}); identical scenes "
            f"matched_fraction {same.matched_fraction}, {elapsed:.0f} s")


def test_criterion_8_reconstruction(three_disks):
    t0 = time.time()
    a = three_disks.ball_radius
    table = sl.travelling_time_spectrum(three_disks, n_points=48)
    est = sl.reconstruct_boundary(table, three_disks.ball_center, a)
    truth = np.vstack([sl.boundary_samples(b, 2048) for b in three_disks.bodies])
    hd = sl.point_set_hausdorff(est.points, truth)
    ideal = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), a, 400)
    est_ideal = sl.reconstruct_boundary(sl.samples_table(ideal), (0.0, 0.0), a)
    exactness = float(np.max(np.abs(np.linalg.norm(est_ideal.points, axis=1) - 1.0)))
    elapsed = time.time() - t0
    ok = hd < 0.02 * a and exactness < 1e-8 and elapsed < 300.0
    _report(8, ok,
            f"estimate within Hausdorff {hd:.4f} of the boundary "
            f"(budget {0.02 * a}); ideal-sample exactness {exactness:.2e}, "
            f"{elapsed:.0f} s")


def test_criterion_9_livshits_demo():
    t0 = time.time()
    params = sl.LivshitsParams(n_offsets=400, n_angles=250, n_focal=1000)
    report = sl.livshits_demo(params)
    elapsed = time.time() - t0
    ok = (report.hidden_hits == (0, 0)
          and report.plate_underside_hits == (0, 0)
          and report.focal_max_error < 1e-9
          and report.exits_between_foci
          and report.comparison.matched_fraction == 1.0
          and elapsed < 120.0)
    _report(9, ok,
            f"100000 aperture rays, hidden hits {report.hidden_hits}, focal "
            f"error {report.focal_max_error:.2e}, exits within "
            f"|x| <= {report.max_abs_exit_crossing:.4f} < c, variants matched "
            f"{report.comparison.matched_fraction}, {elapsed:.0f} s")


def test_criterion_10_coverage():
    t0 = time.time()
    disk = sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                    ball_radius=10.0)
    cov = sl.accessible_coverage(disk, 100_000, 0.05, seed=17)
    livshits = sl.build_livshits_scene(sl.LivshitsParams(), "bump")
    cov_l = sl.accessible_coverage(livshits, 100_000, 0.05, seed=19)
    hidden = cov_l.coverage_of_tag("hidden")
    elapsed = time.time() - t0
    ok = (cov.body_coverage[0] >= 0.99 and hidden
          and all(c == 0.0 for c in hidden) and elapsed < 120.0)
    _report(10, ok,
            f"disk coverage {cov.body_coverage[0]:.4f} (>= 0.99); hidden-arc "
            f"coverage {hidden}, {elapsed:.0f} s")


def test_criterion_11_determinism(tmp_path, three_disks):
    # Byte-identical CSV outputs for the criterion 7-9 pipelines. The grids
    # are reduced relative to criteria 7 and 8 to keep the double runs quick;
    # byte stability does not depend on the grid size, and criterion 9 runs
    # at a representative demo resolution.
    t0 = time.time()
    two = sl.Scene(dimension=2,
                   bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.0), 1.0)),
                   ball_radius=10.0)
    two_file = tmp_path / "two.toy"
    two_file.write_text(serialize_scene(two, name="two", seed=7))
    three_file = tmp_path / "three.toy"
    three_file.write_text(serialize_scene(three_disks, name="three", seed=7))
    blobs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        assert run_command(["travel", str(two_file), "--points", "16",
                            "--out", str(d / "travel7.csv")]) == 0
        assert run_command(["travel", str(three_file), "--points", "12",
                            "--out", str(d / "travel8.csv")]) == 0
        assert run_command(["reconstruct", str(d / "travel8.csv"),
                            "--ball", "0,0,10",
                            "--out", str(d / "recon8.csv")]) == 0
        assert run_command(["demo-livshits", "--offsets", "100", "--angles",
                            "100", "--focal", "200",
                            "--out-dir", str(d)]) == 0
        blobs.append(tuple((d / name).read_bytes()
                           for name in ("travel7.csv", "travel8.csv",
                                        "recon8.csv", "livshits_bump.csv",
                                        "livshits_flat.csv")))
    elapsed = time.time() - t0
    ok = blobs[0] == blobs[1]
    _report(11, ok, f"repeated runs byte-identical across 5 CSVs, {elapsed:.0f} s")
