import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl
from scatterlab.cli import (build_parser, read_travel_csv, run_command, write_reconstruct_csv,
                            write_sls_csv, write_travel_csv)
from scatterlab.scenefile import serialize_scene


@pytest.fixture()
def disk_file(tmp_path, disk_scene):
    path = tmp_path / "disk.toy"
    path.write_text(serialize_scene(disk_scene, name="disk", seed=5))
    return str(path)


@pytest.fixture()
def two_disk_file(tmp_path, two_disk_scene):
    path = tmp_path / "two.toy"
    path.write_text(serialize_scene(two_disk_scene, name="two", seed=5))
    return str(path)


def test_validate_ok(disk_file, capsys):
    assert run_command(["validate", disk_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_scene(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "ball": {"center": [0.0, 0.0], "radius": 10.0},
        "bodies": [
            {"kind": "ball", "center": [-0.5, 0.0], "semiaxes": [1.0, 1.0]},
            {"kind": "ball", "center": [0.5, 0.0], "semiaxes": [1.0, 1.0]},
        ],
    }
    path = tmp_path / "bad.toy"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 1


def test_validate_refuses_crossed_curves(tmp_path, capsys, crossed_curve_scene):
    path = tmp_path / "crossed.toy"
    path.write_text(serialize_scene(crossed_curve_scene))
    assert run_command(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "disjointness[0, 1]" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_commands_import_no_scipy(tmp_path, disk_file):
    # The package is numpy-only: neither importing it nor any CLI command
    # loads a scipy module.
    travel = str(tmp_path / "travel.csv")
    commands = [
        ["validate", disk_file],
        ["trace", disk_file, "--start=-10,0", "--direction=1,0"],
        ["sls", disk_file, "--omega", "1,0", "--grid", "16"],
        ["travel", disk_file, "--points", "6", "--out", travel],
        ["compare", travel, travel],
        ["probe-counts", disk_file, disk_file, "--n", "50"],
        ["coverage", disk_file, "--rays", "300"],
        ["reconstruct", travel, "--ball", "0,0,10"],
        ["demo-livshits", "--offsets", "20", "--angles", "20", "--focal", "20"],
    ]
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(sub.choices)
    code = ("import contextlib, io, json, sys, scatterlab\n"
            "from scatterlab.cli import run_command\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "steps = [('import', 0, loaded())]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        steps.append((argv[0], run_command(argv), loaded()))\n"
            "print(json.dumps(steps))\n")
    src = str(Path(sl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    steps = json.loads(done.stdout)
    assert [s[0] for s in steps] == ["import"] + [argv[0] for argv in commands]
    assert [step for step in steps if step[1:] != [0, []]] == []


def test_missing_file_is_io_error(capsys):
    assert run_command(["validate", "/nonexistent/scene.toy"]) == 2


def test_trace_command(disk_file, capsys):
    status = run_command(["trace", disk_file, "--start=-10,0",
                          "--direction=1,0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "escaped" in out
    assert "reflections: 1" in out


@pytest.mark.parametrize("start, direction, message", [
    ("-10,0,0", "1,0,0", "2-dimensional"),
    ("0,0", "1,0", "inside body 0"),
], ids=["3d-ray-on-2d-scene", "start-inside-the-disk"])
def test_trace_refuses_rays_it_cannot_trace(disk_file, capsys, start, direction, message):
    assert run_command(["trace", disk_file, f"--start={start}", f"--direction={direction}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_sls_row_budget(disk_file, tmp_path, capsys):
    out_csv = tmp_path / "sls.csv"
    status = run_command(["sls", disk_file, "--omega", "1,0", "--grid", "64",
                          "--out", str(out_csv)])
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("omega_1,omega_2,impact_1,theta_1,theta_2,T,")
    assert len(lines) - 1 <= 64


def test_sls_refuses_a_direction_of_another_dimension(disk_file, capsys):
    assert run_command(["sls", disk_file, "--omega", "0,0,1", "--grid", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a 3-d direction for a 2-d scene\n"


def test_travel_summary_counts_dropped_words(disk_file, capsys):
    # The summary line prints the table's counters: the words that gave no
    # root and the Newton steps of the d = 2 solve.
    assert run_command(["travel", disk_file, "--points", "4", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    scene = sl.parse_scene(open(disk_file).read())
    diag = sl.travelling_time_spectrum(scene, n_points=4, depth=3).diagnostics_dict()
    assert out.endswith(f"dropped: {diag['dropped_clusters']}  "
                        f"newton_steps: {diag['newton_steps']}\n")
    assert diag["dropped_clusters"] > 0


def test_travel_summary_counts_newton_steps(ball_ellipsoid_scene, tmp_path, capsys):
    # A d = 3 table traces no ray; its counted work is the Newton steps of
    # its path searches.
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(sl.serialize_scene(ball_ellipsoid_scene))
    assert run_command(["travel", str(scene_file), "--points", "3", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "cutoff_seeds" not in out and "refine_shots" not in out
    assert int(out.split("newton_steps: ")[1].split()[0]) > 0


def test_compare_identical_files(disk_file, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_command(["travel", disk_file, "--points", "8",
                        "--out", str(a)]) == 0
    assert run_command(["travel", disk_file, "--points", "8",
                        "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_command(["compare", str(a), str(b), "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "indistinguishable" in out
    assert "matched_fraction: 1.0" in out


def test_compare_differing_scenes(two_disk_file, tmp_path, capsys):
    moved = sl.Scene(dimension=2,
                     bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((4.0, 0.0), 1.0)),
                     ball_radius=10.0)
    moved_file = tmp_path / "moved.toy"
    moved_file.write_text(serialize_scene(moved, name="moved", seed=5))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_command(["travel", two_disk_file, "--points", "12", "--out", str(a)]) == 0
    assert run_command(["travel", str(moved_file), "--points", "12", "--out", str(b)]) == 0
    assert run_command(["compare", str(a), str(b), "--tol", "1e-6"]) == 0
    assert "distinguishable" in capsys.readouterr().out


def test_probe_counts_requires_seed(tmp_path, disk_scene, capsys):
    path = tmp_path / "noseed.toy"
    path.write_text(serialize_scene(disk_scene, name="noseed"))
    status = run_command(["probe-counts", str(path), str(path), "--n", "10"])
    assert status == 1
    assert "seed" in capsys.readouterr().err


def test_probe_counts_self(disk_file, capsys):
    assert run_command(["probe-counts", disk_file, disk_file, "--n", "50"]) == 0
    assert "equal_fraction: 1.0" in capsys.readouterr().out


def test_probe_counts_refuses_mixed_dimensions(disk_file, tmp_path, capsys):
    ball_file = tmp_path / "ball3.toy"
    ball_scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 1.0),),
                          ball_radius=10.0)
    ball_file.write_text(serialize_scene(ball_scene, name="ball3", seed=5))
    for a, b in ((str(ball_file), disk_file), (disk_file, str(ball_file))):
        assert run_command(["probe-counts", a, b, "--n", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "dimension" in captured.err


def test_coverage_command(disk_file, capsys):
    assert run_command(["coverage", disk_file, "--rays", "2000",
                        "--eps", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "body 0" in out


def test_coverage_atlas_has_a_column_per_coordinate(tmp_path, ball_ellipsoid_scene):
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(serialize_scene(ball_ellipsoid_scene, seed=5))
    atlas = tmp_path / "atlas.csv"
    assert run_command(["coverage", str(scene_file), "--rays", "300", "--out", str(atlas)]) == 0
    header, *rows = atlas.read_text().splitlines()
    assert header == "obstacle,p_1,p_2,p_3"
    assert rows and all(len(row.split(",")) == 4 for row in rows)


@pytest.mark.parametrize("argv, expected", [
    (["coverage", "{disk}", "--rays", "300", "--eps", "nan"], "finite and positive"),
    (["coverage", "{disk}", "--rays", "300", "--eps", "0"], "finite and positive"),
    (["coverage", "{disk}", "--rays", "0"], "at least one ray"),
    (["probe-counts", "{disk}", "{disk}", "--n", "0"], "at least one ray"),
    (["demo-livshits", "--focal", "0"], "at least one"),
    (["demo-livshits", "--offsets", "0"], "at least one"),
    (["demo-livshits", "--angles", "0"], "at least one"),
])
def test_ray_families_without_rays_exit_1(disk_file, capsys, argv, expected):
    assert run_command([a.format(disk=disk_file) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and expected in captured.err


def test_reconstruct_command(disk_file, tmp_path, capsys):
    travel_csv = tmp_path / "travel.csv"
    assert run_command(["travel", disk_file, "--points", "16",
                        "--out", str(travel_csv)]) == 0
    out_csv = tmp_path / "points.csv"
    status = run_command(["reconstruct", str(travel_csv), "--ball", "0,0,10",
                          "--out", str(out_csv)])
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("p_1,p_2,source_x_1")
    assert len(lines) > 10
    for line in lines[1:]:
        px, py = map(float, line.split(",")[:2])
        assert abs(math.hypot(px, py) - 1.0) < 1e-4


def test_demo_livshits_command(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    status = run_command(["demo-livshits", "--offsets", "40", "--angles", "40",
                          "--focal", "50", "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert status == 0
    assert "hidden hits (bump, flat): (0, 0)" in out
    assert (out_dir / "livshits_bump.csv").exists()
    assert (out_dir / "livshits_flat.csv").exists()


def test_demo_livshits_determinism(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    for d in (d1, d2):
        assert run_command(["demo-livshits", "--offsets", "30", "--angles", "30",
                            "--focal", "20", "--out-dir", str(d)]) == 0
    assert (d1 / "livshits_bump.csv").read_bytes() == (d2 / "livshits_bump.csv").read_bytes()
    assert (d1 / "livshits_flat.csv").read_bytes() == (d2 / "livshits_flat.csv").read_bytes()


def test_travel_csv_round_trip_floats(disk_file, tmp_path):
    out_csv = tmp_path / "travel.csv"
    assert run_command(["travel", disk_file, "--points", "8",
                        "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    header = lines[0].split(",")
    t_col = header.index("t")
    for line in lines[1:3]:
        val = line.split(",")[t_col]
        assert repr(float(val)) == repr(float(repr(float(val))))


def test_precision_env_override(disk_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SCATTERLAB_PRECISION", "6")
    out_csv = tmp_path / "c.csv"
    assert run_command(["sls", disk_file, "--omega", "1,0", "--grid", "8",
                        "--out", str(out_csv)]) == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert all(len(tok.split(".")[-1]) <= 10 for tok in row[:2])
    monkeypatch.setenv("SCATTERLAB_PRECISION", "99")
    assert run_command(["sls", disk_file, "--omega", "1,0", "--grid", "8"]) == 1


def test_threads_env_validated(disk_file, monkeypatch):
    monkeypatch.setenv("SCATTERLAB_THREADS", "zero")
    assert run_command(["travel", disk_file, "--points", "6"]) == 1


def test_usage_error_exit_code():
    assert run_command(["no-such-command"]) == 1


@pytest.mark.parametrize("change", [
    {"bodies": 5},
    {"bodies": [{"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": [2.0, 1.0],
                 "rotation": [1, 0, 0, 1]}]},
    {"bodies": [{"kind": "ball", "center": [float("nan"), 0.0], "semiaxes": [1.0, 1.0]}]},
    {"ball": {"center": [0.0, 0.0], "radius": float("inf")}},
])
def test_validate_malformed_document_exits_1(tmp_path, capsys, change):
    doc = {"dimension": 2, "ball": {"center": [0.0, 0.0], "radius": 10.0}, **change}
    path = tmp_path / "bad.toy"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_travel_refuses_d4(tmp_path, capsys):
    path = tmp_path / "empty4.toy"
    path.write_text(serialize_scene(sl.Scene(dimension=4, ball_radius=10.0)))
    assert run_command(["travel", str(path), "--points", "4"]) == 1
    assert "d = 4" in capsys.readouterr().err


def test_travel_refuses_curve_scenes(tmp_path, capsys):
    path = tmp_path / "bump.toy"
    path.write_text(serialize_scene(sl.build_livshits_scene(sl.LivshitsParams(), "bump")))
    assert run_command(["travel", str(path), "--points", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "curve obstacles" in err


def test_travel_refuses_a_negative_depth(tmp_path, capsys, disk_scene):
    path = tmp_path / "disk.toy"
    path.write_text(serialize_scene(disk_scene))
    assert run_command(["travel", str(path), "--points", "4", "--depth", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "depth must be an integer >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dimension", [2, 3])
def test_travel_csv_reads_back_as_samples(tmp_path, two_disk_scene,
                                          ball_ellipsoid_scene, dimension):
    if dimension == 2:
        table = sl.travelling_time_spectrum(two_disk_scene, n_points=6)
    else:
        table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=3, depth=3)
    path = tmp_path / "travel.csv"
    write_travel_csv(table, path, 17)
    back = read_travel_csv(path)
    assert len(back) == len(table.samples) > 0
    # Every field but the pair index is stored and must round-trip exactly.
    for got, want in zip(back, table.samples):
        assert got._replace(pair=want.pair) == want


# Negative zero, the least subnormal, a float near overflow and two values
# that need all 17 digits to round-trip.
_AWKWARD = (-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0 / 3.0)


def _g(values, prec):
    return [f"{v:.{prec}g}" for v in values]


# The grid of a hand-built d = 2 table: the CSV writers read the dimension
# from its ball centre.
_PLANE = (("ball_center", (0.0, 0.0)),)


def _data_lines(write, obj, path, prec):
    write(obj, path, prec)
    return path.read_bytes().decode().split("\n")[1:]


@pytest.mark.parametrize("prec", range(1, 18))
def test_csv_writers_match_per_field_formatting(tmp_path, prec):
    # Each writer formats a row with one format string; the reference
    # formats every field on its own, as the writers once did.
    a, b, c, d, e = _AWKWARD
    travel = [sl.TravellingTimeSample(0, (a, b), (c, d), e, 2, (d, a), (b, e), c, (0, 1)),
              sl.TravellingTimeSample(1, (e, c), (b, a), d, 0, (c, e), (a, d), b, ())]
    want = [",".join(_g(s.x + s.y + (s.t,), prec) + [str(s.reflections)] + _g([s.residual], prec)
                     + ["|".join(map(str, s.itinerary))] + _g(s.dir_in + s.dir_out, prec))
            for s in travel]
    table = sl.SpectrumTable("travel", "", _PLANE, ((e,), (d,)), tuple(travel), ())
    assert _data_lines(write_travel_csv, table, tmp_path / "t.csv", prec) == want + [""]

    sls = [sl.SLSSample(3, (a, c), (b,), (d, e), (e, a), c, 1, True, (2,)),
           sl.SLSSample(4, (b, d), (e,), (a, c), (c, b), a, 0, False, ())]
    want = [",".join(_g(s.omega + s.impact + s.theta + (s.sojourn,), prec)
                     + [str(s.reflections), "1" if s.grazing else "0",
                        "|".join(map(str, s.itinerary))]) for s in sls]
    table = sl.SpectrumTable("sls", "", _PLANE, ((c,), (a,)), tuple(sls), ())
    assert _data_lines(write_sls_csv, table, tmp_path / "s.csv", prec) == want + [""]

    prov = (((e, a), (b, c), d, (a, a)), ((d, e), (a, b), c, (e, e)))
    points = np.array([[a, b], [c, d]])
    want = [",".join(_g(list(p) + list(x) + list(y) + [t], prec))
            for p, (x, y, t, _) in zip(points, prov)]
    estimate = sl.BoundaryEstimate(points, prov, 0)
    assert _data_lines(write_reconstruct_csv, estimate, tmp_path / "r.csv", prec) == want + [""]


def test_csv_headers_of_tables_without_samples_keep_their_dimension(tmp_path):
    # The writers read the dimension from the table's grid, not from its
    # samples: a d = 3 table whose one chord passes through a ball of radius
    # 9 at the centre has no sample, and its header is still that of d = 3.
    scene = sl.Scene(dimension=3, bodies=(sl.ball((0.0, 0.0, 0.0), 9.0),), ball_radius=10.0)
    travel = sl.travelling_time_spectrum(scene, n_points=2, depth=0)
    assert travel.samples == ()
    write_travel_csv(travel, tmp_path / "t.csv", 17)
    assert (tmp_path / "t.csv").read_text() == (
        "x_1,x_2,x_3,y_1,y_2,y_3,t,reflections,residual,itinerary,"
        "dir_in_1,dir_in_2,dir_in_3,dir_out_1,dir_out_2,dir_out_3\n")
    sls = dataclasses.replace(sl.scan_sls(scene, (1.0, 0.0, 0.0), 4), samples=())
    write_sls_csv(sls, tmp_path / "s.csv", 17)
    assert (tmp_path / "s.csv").read_text() == (
        "omega_1,omega_2,omega_3,impact_1,impact_2,theta_1,theta_2,theta_3,"
        "T,reflections,grazing,itinerary\n")


@pytest.mark.parametrize("dimension, tolerances", [(2, ("1e-6", "3.0")),
                                                   (3, ("1e-6", "0.1"))])
def test_cli_compare_agrees_with_library(tmp_path, capsys, two_disk_scene,
                                         ball_ellipsoid_scene, dimension, tolerances):
    if dimension == 2:
        scene = two_disk_scene
        kwargs = {"n_points": 6, "phase": 0.3}
    else:
        scene = ball_ellipsoid_scene
        kwargs = {"n_points": 3, "depth": 3}
    body = scene.bodies[1]
    shifted = dataclasses.replace(body, center=(body.center[0] + 0.5, *body.center[1:]))
    moved = dataclasses.replace(scene, bodies=(scene.bodies[0], shifted))
    tables = [sl.travelling_time_spectrum(s, **kwargs) for s in (scene, moved)]
    # A CSV has rows only for cells with times, so the CLI sees the library's
    # cells only when no cell is empty in both tables.
    assert all(ca or cb for ca, cb in zip(*(t.cells for t in tables)))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for table, path in zip(tables, paths):
        write_travel_csv(table, path, 17)
    for tol in tolerances:
        report = sl.compare_spectra(*tables, tol=float(tol))
        assert run_command(["compare", *map(str, paths), "--tol", tol]) == 0
        out = capsys.readouterr().out
        assert (f"cells: {len(tables[0].cells)}  "
                f"matched_fraction: {report.matched_fraction:.6f}") in out
        assert f"verdict: {report.verdict}" in out


def test_cli_compare_counts_only_cells_with_rows(tmp_path, capsys, two_disk_scene):
    # Two cells of this grid are empty in both tables. They have no rows in
    # either CSV, so the CLI does not see them, while the library counts
    # them as matched.
    body = two_disk_scene.bodies[1]
    shifted = dataclasses.replace(body, center=(body.center[0] + 0.5, body.center[1]))
    moved = dataclasses.replace(two_disk_scene, bodies=(two_disk_scene.bodies[0], shifted))
    tables = [sl.travelling_time_spectrum(s, n_points=6, phase=0.0)
              for s in (two_disk_scene, moved)]
    report = sl.compare_spectra(*tables, tol=1e-9)
    assert len(report.per_cell) == 30
    assert f"{report.matched_fraction:.6f}" == "0.333333"
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for table, path in zip(tables, paths):
        write_travel_csv(table, path, 17)
    assert run_command(["compare", *map(str, paths), "--tol", "1e-9"]) == 0
    assert "cells: 28  matched_fraction: 0.285714" in capsys.readouterr().out


@pytest.mark.parametrize("command, option, value", [
    ("trace", "--start", "nan,0"),
    ("trace", "--direction", "inf,0"),
    ("sls", "--omega", "nan,1"),
    ("reconstruct", "--ball", "0,0,nan"),
])
def test_non_finite_vector_option_exits_1(tmp_path, capsys, disk_file, command,
                                          option, value):
    if command == "reconstruct":
        travel = tmp_path / "travel.csv"
        travel.write_text(f"{_TRAVEL_HEADER}\n{_CHORD_ROW}\n")
        argv = [command, str(travel), f"{option}={value}"]
    else:
        given = {"trace": {"--start": "-10,0", "--direction": "1,0"},
                 "sls": {"--omega": "1,0"}}[command]
        given[option] = value
        argv = [command, disk_file, *(f"{k}={v}" for k, v in given.items())]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{option}: expected a finite number" in err


_TRAVEL_HEADER = ("x_1,x_2,y_1,y_2,t,reflections,residual,itinerary,"
                  "dir_in_1,dir_in_2,dir_out_1,dir_out_2")
_CHORD_ROW = "10,0,-10,0,20,0,0,,-1,0,-1,0"


@pytest.mark.parametrize("command, rows, expected", [
    ("compare", [_CHORD_ROW, "10,0,-10,0"], "{path}:3: 4 fields"),
    ("compare", [_CHORD_ROW.replace(",20,", ",nan,")], "{path}:2: expected a finite"),
    ("compare", [], "no cells"),
    ("reconstruct", [_CHORD_ROW, "10,0,-10,0"], "{path}:3: 4 fields"),
    ("reconstruct", [_CHORD_ROW.replace(",20,", ",nan,")], "{path}:2: expected a finite"),
    ("reconstruct", [_CHORD_ROW[:-4] + "inf,0"], "{path}:2: expected a finite"),
], ids=["compare-short-row", "compare-nan-time", "compare-header-only",
        "reconstruct-short-row", "reconstruct-nan-time", "reconstruct-inf-dir-out"])
def test_malformed_travel_csv_exits_1(tmp_path, capsys, command, rows, expected):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([_TRAVEL_HEADER, *rows]) + "\n")
    argv = ([command, str(path), str(path)] if command == "compare"
            else [command, str(path), "--ball", "0,0,10"])
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert expected.format(path=path) in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compare_refuses_a_bad_tolerance(tmp_path, capsys, tol):
    # These once printed a verdict and exited 0.
    path = tmp_path / "a.csv"
    path.write_text(f"{_TRAVEL_HEADER}\n{_CHORD_ROW}\n")
    assert run_command(["compare", str(path), str(path), "--tol", tol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "tolerance must be finite and nonnegative" in err


def _write_samples_csv(samples, path):
    """Write loose d = 2 travel samples as a travel CSV."""
    write_travel_csv(dataclasses.replace(sl.samples_table(samples), grid=_PLANE), path, 17)


def test_reconstruct_reads_the_file(tmp_path, capsys):
    # The one-bounce samples alone determine the estimate: no scene is read.
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 20)
    travel_csv = tmp_path / "travel.csv"
    _write_samples_csv(samples, travel_csv)
    out_csv = tmp_path / "points.csv"
    assert run_command(["reconstruct", str(travel_csv), "--ball", "0,0,10",
                        "--out", str(out_csv)]) == 0
    assert "points: 20  skipped: 0" in capsys.readouterr().out
    want = sl.reconstruct_boundary(sl.samples_table(samples), (0.0, 0.0), 10.0)
    rows = out_csv.read_text().splitlines()[1:]
    got = [tuple(map(float, row.split(",")[:2])) for row in rows]
    assert got == [tuple(p) for p in want.points]


@pytest.mark.parametrize("ball, message", [
    ("0,0,-1", "finite centre and radius > 0: [0.0, 0.0], -1.0"),
    ("10", "a 0-d centre for 2-d samples"),
    ("0,0,0,10", "a 3-d centre for 2-d samples")])
def test_reconstruct_refuses_a_bad_ball(tmp_path, capsys, ball, message):
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 20)
    travel_csv = tmp_path / "travel.csv"
    _write_samples_csv(samples, travel_csv)
    assert run_command(["reconstruct", str(travel_csv), "--ball", ball]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
