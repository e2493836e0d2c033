import dataclasses
import json
import math

import pytest

import scatterlab as sl
from scatterlab.cli import read_travel_csv, run_command, write_travel_csv
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


def test_missing_file_is_io_error(capsys):
    assert run_command(["validate", "/nonexistent/scene.toy"]) == 2


def test_trace_command(disk_file, capsys):
    status = run_command(["trace", disk_file, "--start=-10,0",
                          "--direction=1,0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "escaped" in out
    assert "reflections: 1" in out


def test_sls_row_budget(disk_file, tmp_path, capsys):
    out_csv = tmp_path / "sls.csv"
    status = run_command(["sls", disk_file, "--omega", "1,0", "--grid", "64",
                          "--out", str(out_csv)])
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("omega_1,omega_2,impact_1,theta_1,theta_2,T,")
    assert len(lines) - 1 <= 64


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


def test_coverage_command(disk_file, capsys):
    assert run_command(["coverage", disk_file, "--rays", "2000",
                        "--eps", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "body 0" in out


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


@pytest.mark.parametrize("dimension", [2, 3])
def test_travel_csv_reads_back_as_samples(tmp_path, two_disk_scene,
                                          ball_ellipsoid_scene, dimension):
    if dimension == 2:
        table = sl.travelling_time_spectrum(two_disk_scene, n_points=6)
    else:
        table = sl.travelling_time_spectrum(ball_ellipsoid_scene, n_points=3,
                                            n_seeds=200)
    path = tmp_path / "travel.csv"
    write_travel_csv(table, path, 17)
    back = read_travel_csv(path)
    assert len(back) == len(table.samples) > 0
    # Every field but the pair index is stored and must round-trip exactly.
    for got, want in zip(back, table.samples):
        assert dataclasses.replace(got, pair=want.pair) == want


@pytest.mark.parametrize("dimension, tolerances", [(2, ("1e-6", "3.0")),
                                                   (3, ("1e-6", "0.1"))])
def test_cli_compare_agrees_with_library(tmp_path, capsys, two_disk_scene,
                                         ball_ellipsoid_scene, dimension, tolerances):
    if dimension == 2:
        scene = two_disk_scene
        kwargs = {"n_points": 6, "phase": 0.3}
    else:
        scene = ball_ellipsoid_scene
        kwargs = {"n_points": 3, "n_seeds": 200}
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


def test_reconstruct_reads_the_file(tmp_path, capsys):
    # The one-bounce samples alone determine the estimate: no scene is read.
    samples = sl.ideal_one_bounce_samples((0.0, 0.0), 1.0, (0.0, 0.0), 10.0, 20)
    travel_csv = tmp_path / "travel.csv"
    write_travel_csv(sl.samples_table(samples), travel_csv, 17)
    out_csv = tmp_path / "points.csv"
    assert run_command(["reconstruct", str(travel_csv), "--ball", "0,0,10",
                        "--out", str(out_csv)]) == 0
    assert "points: 20  skipped: 0" in capsys.readouterr().out
    want = sl.reconstruct_boundary(sl.samples_table(samples), (0.0, 0.0), 10.0)
    rows = out_csv.read_text().splitlines()[1:]
    got = [tuple(map(float, row.split(",")[:2])) for row in rows]
    assert got == [tuple(p) for p in want.points]
