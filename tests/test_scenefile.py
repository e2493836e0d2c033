import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scatterlab as sl
from scatterlab.cli import run_command
from scatterlab.scenefile import (SceneFormatError, parse_scene,
                                  parse_scene_document, serialize_scene)


MINIMAL = """
{
  "dimension": 2,
  "ball": {"center": [0.0, 0.0], "radius": 10.0},
  "bodies": [{"kind": "ball", "center": [0.0, 0.0], "semiaxes": [1.0, 1.0]}]
}
"""


def test_parse_minimal_document():
    scene = parse_scene(MINIMAL)
    assert scene.dimension == 2
    assert len(scene.bodies) == 1
    assert scene.ball_radius == 10.0


def test_parse_reports_overlap_with_indices():
    doc = {
        "dimension": 2,
        "ball": {"center": [0.0, 0.0], "radius": 10.0},
        "bodies": [
            {"kind": "ball", "center": [-0.5, 0.0], "semiaxes": [1.0, 1.0]},
            {"kind": "ball", "center": [0.5, 0.0], "semiaxes": [1.0, 1.0]},
        ],
    }
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    text = str(err.value)
    assert "disjointness" in text
    assert "[0, 1]" in text


def test_parse_rejects_non_orthonormal_rotation():
    doc = json.loads(MINIMAL)
    doc["bodies"][0] = {"kind": "ellipsoid", "center": [0.0, 0.0],
                        "semiaxes": [2.0, 1.0],
                        "rotation": [[1.0, 0.1], [0.0, 1.0]]}
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    assert "orthonormal" in str(err.value)


def test_parse_rejects_unknown_keys():
    doc = json.loads(MINIMAL)
    doc["extra"] = 1
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    assert "unknown key" in str(err.value)
    doc = json.loads(MINIMAL)
    doc["bodies"][0]["colour"] = "red"
    with pytest.raises(SceneFormatError):
        parse_scene(json.dumps(doc))


def test_parse_syntax_error_has_location():
    with pytest.raises(SceneFormatError) as err:
        parse_scene("{\n  \"dimension\": 2,\n}")
    assert "line" in str(err.value)


def test_parse_rejects_rotation_on_ball():
    doc = json.loads(MINIMAL)
    doc["bodies"][0]["rotation"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SceneFormatError):
        parse_scene(json.dumps(doc))


def test_metadata_round_trip():
    doc = parse_scene_document(serialize_scene(parse_scene(MINIMAL),
                                               name="demo", seed=7))
    assert doc.name == "demo"
    assert doc.seed == 7


def test_round_trip_bit_identical():
    rot = sl.rotation_2d(0.37)
    scene = sl.Scene(
        dimension=2,
        bodies=(sl.ball((math.pi, -1.0 / 3.0), 1.0),
                sl.ellipsoid((6.5, 0.1), (1.5, 0.25), rot)),
        curves=(sl.CurveObstacle((
            sl.EllipticArc((0.0, -5.0), (1.0, 0.5), (0.0, math.pi), ("roof",)),
            sl.SegmentArc((-1.0, -5.0), (1.0, -5.0), ("floor",)),
        )),),
        ball_radius=10.0,
    )
    text = serialize_scene(scene)
    again = parse_scene(text)
    assert again.digest == scene.digest
    for b1, b2 in zip(scene.bodies, again.bodies):
        assert b1.center == b2.center
        assert b1.semiaxes == b2.semiaxes
        assert b1.rotation == b2.rotation
    assert serialize_scene(again) == text


def test_curve_tags_survive_round_trip():
    params = sl.LivshitsParams()
    scene = sl.build_livshits_scene(params, "bump")
    again = parse_scene(serialize_scene(scene))
    assert again.digest == scene.digest
    tags = [a.tags for c in again.curves for a in c.arcs]
    assert frozenset(("hidden",)) in tags


def test_validation_failure_is_schema_failure():
    doc = json.loads(MINIMAL)
    doc["bodies"][0]["center"] = [9.5, 0.0]
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    assert "containment" in str(err.value)


def _nested_document(dimension, outer, inner) -> str:
    return json.dumps({
        "dimension": dimension,
        "ball": {"center": [0.0] * dimension, "radius": 10.0},
        "bodies": [{"kind": "ellipsoid", "center": [0.0] * dimension, "semiaxes": outer},
                   inner],
    })


@pytest.mark.parametrize("text", [
    _nested_document(2, [3.0, 2.0], {"kind": "ellipsoid", "center": [0.0, 0.0],
                                     "semiaxes": [1.0, 0.5]}),
    _nested_document(2, [3.0, 2.0], {"kind": "ball", "center": [0.0, 0.0],
                                     "semiaxes": [0.5, 0.5]}),
    _nested_document(3, [3.0, 2.0, 1.5], {"kind": "ball", "center": [0.2, 0.0, 0.0],
                                          "semiaxes": [0.5, 0.5, 0.5]}),
], ids=["ellipses", "ball-in-ellipse", "ball-in-ellipsoid"])
def test_nested_bodies_are_refused(text, tmp_path):
    with pytest.raises(SceneFormatError) as err:
        parse_scene(text)
    [issue] = err.value.issues
    assert issue.location == "scene.disjointness[0, 1]"
    assert float(issue.message.split()[-1]) < 0.0
    path = tmp_path / "nested.toy"
    path.write_text(text)
    assert run_command(["validate", str(path)]) == 1


@pytest.mark.parametrize("axis", [1e-170, 1e200])
def test_semiaxes_without_finite_curvature_are_refused(axis, tmp_path, capsys):
    doc = _with_body(kind="ellipsoid", semiaxes=[axis, 1.0])
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    [issue] = err.value.issues
    assert issue.location == "bodies[0]"
    assert "1/s^2" in issue.message
    path = tmp_path / "extreme.toy"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_command(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "bodies[0]" in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def test_parse_imports_no_scipy(ball_ellipsoid_scene):
    # Validation is numpy-only; scipy loads only for the KD-tree lookups of
    # coverage and point-set Hausdorff.
    code = ("import sys, scatterlab; scatterlab.parse_scene(sys.stdin.read()); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(sl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], input=serialize_scene(ball_ellipsoid_scene),
                          capture_output=True, text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def _with_body(**fields):
    doc = json.loads(MINIMAL)
    doc["bodies"][0].update(fields)
    return doc


@pytest.mark.parametrize("doc, where", [
    ({**json.loads(MINIMAL), "bodies": 5}, "bodies"),
    ({**json.loads(MINIMAL), "curves": {"arcs": []}}, "curves"),
    (_with_body(kind="ellipsoid", semiaxes=[2.0, 1.0], rotation=[1.0, 0.0, 0.0, 1.0]),
     "bodies[0].rotation"),
    (_with_body(center=[float("nan"), 0.0]), "bodies[0].center"),
    ({**json.loads(MINIMAL), "ball": {"center": [0.0, 0.0], "radius": float("inf")}},
     "ball.radius"),
    (_with_body(center=[10 ** 400, 0.0]), "bodies[0].center"),
])
def test_parse_rejects_malformed_values_with_location(doc, where):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts.
    with pytest.raises(SceneFormatError) as err:
        parse_scene(json.dumps(doc))
    assert any(issue.location == where for issue in err.value.issues)


_SCHEMA_KEYS = sorted({"dimension", "ball", "bodies", "curves", "metadata", "center",
                       "radius", "kind", "semiaxes", "rotation", "arcs", "type",
                       "angles", "points", "tags", "name", "seed"})
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["ball", "ellipsoid", "elliptic", "segment"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: _json_values for key in
                                           ("dimension", "ball", "bodies", "curves",
                                            "metadata")}))
def test_parse_never_crashes(doc):
    # Any JSON document either parses or fails with located issues.
    try:
        parse_scene_document(json.dumps(doc))
    except SceneFormatError as err:
        assert err.issues
