"""Scene documents: a strict JSON schema with exact float round-trip.

Unknown keys, wrongly shaped values and non-finite numbers (NaN, infinities,
integers beyond the float range) fail parsing anywhere in the document;
silent misconfiguration is worse than a hard error. Parsing also runs the geometric validation, so
a returned scene is always admissible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (ConvexBody, CurveObstacle, EllipticArc, Scene, SegmentArc,
                       validate_scene)


@dataclass(frozen=True)
class SceneIssue:
    location: str
    message: str

    def __str__(self):
        return f"{self.location}: {self.message}"


class SceneFormatError(ValueError):
    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class SceneDocument:
    scene: Scene
    name: Optional[str]
    seed: Optional[int]


_TOP_KEYS = {"dimension", "ball", "bodies", "curves", "metadata"}
_BALL_KEYS = {"center", "radius"}
_BODY_KEYS = {"kind", "center", "semiaxes", "rotation"}
_CURVE_KEYS = {"arcs"}
_ARC_KEYS = {"type", "center", "semiaxes", "angles", "points", "tags"}
_META_KEYS = {"name", "seed"}


def _reject_unknown(obj: dict, allowed: set, path: str, issues: list):
    for key in obj:
        if key not in allowed:
            issues.append(SceneIssue(path, f"unknown key {key!r}"))


def _is_number(v) -> bool:
    """A JSON number that converts to a finite float: no bool, NaN or infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _floats(value, n, path, issues):
    if not isinstance(value, (list, tuple)) or len(value) != n or \
            not all(_is_number(v) for v in value):
        issues.append(SceneIssue(path, f"expected {n} finite numbers"))
        return None
    return [float(v) for v in value]


def _matrix(value, n, path, issues):
    if not isinstance(value, list) or len(value) != n:
        issues.append(SceneIssue(path, f"expected {n} rows of {n} numbers"))
        return None
    rows = [_floats(row, n, f"{path}[{r}]", issues) for r, row in enumerate(value)]
    if any(row is None for row in rows):
        return None
    return np.array(rows)


def _list(obj: dict, key: str, path: str, issues: list) -> list:
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        issues.append(SceneIssue(path, "must be a list"))
        return []
    return value


def parse_scene_document(text: str) -> SceneDocument:
    """Parse and validate a scene document; raises SceneFormatError with
    located issues on any syntax, schema, or geometric-validation failure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError([SceneIssue(f"line {exc.lineno}, column {exc.colno}",
                                           exc.msg)]) from exc
    issues: list[SceneIssue] = []
    if not isinstance(doc, dict):
        raise SceneFormatError([SceneIssue("document", "top level must be an object")])
    _reject_unknown(doc, _TOP_KEYS, "document", issues)
    d = doc.get("dimension")
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        issues.append(SceneIssue("dimension", "must be an integer >= 2"))
        d = 2
    ball = doc.get("ball")
    center = None
    radius = 1.0
    if not isinstance(ball, dict):
        issues.append(SceneIssue("ball", "required object with center and radius"))
    else:
        _reject_unknown(ball, _BALL_KEYS, "ball", issues)
        got = _floats(ball.get("center"), d, "ball.center", issues)
        if got is not None:
            center = got
        r = ball.get("radius")
        if not _is_number(r) or r <= 0:
            issues.append(SceneIssue("ball.radius", "must be a positive finite number"))
        else:
            radius = float(r)
    bodies = []
    for i, item in enumerate(_list(doc, "bodies", "bodies", issues)):
        path = f"bodies[{i}]"
        if not isinstance(item, dict):
            issues.append(SceneIssue(path, "must be an object"))
            continue
        _reject_unknown(item, _BODY_KEYS, path, issues)
        kind = item.get("kind")
        if kind not in ("ball", "ellipsoid"):
            issues.append(SceneIssue(f"{path}.kind", "must be 'ball' or 'ellipsoid'"))
            continue
        ctr = _floats(item.get("center"), d, f"{path}.center", issues)
        axes = _floats(item.get("semiaxes"), d, f"{path}.semiaxes", issues)
        rot = item.get("rotation")
        if kind == "ball" and rot is not None:
            issues.append(SceneIssue(f"{path}.rotation", "not allowed for balls"))
            continue
        rotation = None
        if rot is not None:
            rotation = _matrix(rot, d, f"{path}.rotation", issues)
        if ctr is None or axes is None:
            continue
        if rotation is None:
            rotation = np.eye(d)
        try:
            bodies.append(ConvexBody(kind, tuple(ctr), tuple(axes),
                                     tuple(map(tuple, rotation.tolist()))))
        except ValueError as exc:
            issues.append(SceneIssue(path, str(exc)))
    curves = []
    for i, item in enumerate(_list(doc, "curves", "curves", issues)):
        path = f"curves[{i}]"
        if not isinstance(item, dict):
            issues.append(SceneIssue(path, "must be an object"))
            continue
        _reject_unknown(item, _CURVE_KEYS, path, issues)
        arcs = []
        for j, arc in enumerate(_list(item, "arcs", f"{path}.arcs", issues)):
            apath = f"{path}.arcs[{j}]"
            if not isinstance(arc, dict):
                issues.append(SceneIssue(apath, "must be an object"))
                continue
            _reject_unknown(arc, _ARC_KEYS, apath, issues)
            tags = arc.get("tags", [])
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                issues.append(SceneIssue(f"{apath}.tags", "must be a list of strings"))
                tags = []
            atype = arc.get("type")
            try:
                if atype == "elliptic":
                    ctr = _floats(arc.get("center"), 2, f"{apath}.center", issues)
                    axes = _floats(arc.get("semiaxes"), 2, f"{apath}.semiaxes", issues)
                    angles = _floats(arc.get("angles"), 2, f"{apath}.angles", issues)
                    if None in (ctr, axes, angles):
                        continue
                    arcs.append(EllipticArc(tuple(ctr), tuple(axes), tuple(angles),
                                            frozenset(tags)))
                elif atype == "segment":
                    pts = arc.get("points")
                    if not isinstance(pts, list) or len(pts) != 2:
                        issues.append(SceneIssue(f"{apath}.points", "expected two points"))
                        continue
                    p1 = _floats(pts[0], 2, f"{apath}.points[0]", issues)
                    p2 = _floats(pts[1], 2, f"{apath}.points[1]", issues)
                    if None in (p1, p2):
                        continue
                    arcs.append(SegmentArc(tuple(p1), tuple(p2), frozenset(tags)))
                else:
                    issues.append(SceneIssue(f"{apath}.type",
                                             "must be 'elliptic' or 'segment'"))
            except ValueError as exc:
                issues.append(SceneIssue(apath, str(exc)))
        if arcs:
            try:
                curves.append(CurveObstacle(tuple(arcs)))
            except ValueError as exc:
                issues.append(SceneIssue(path, str(exc)))
    name = None
    seed = None
    meta = doc.get("metadata")
    if meta is not None:
        if not isinstance(meta, dict):
            issues.append(SceneIssue("metadata", "must be an object"))
        else:
            _reject_unknown(meta, _META_KEYS, "metadata", issues)
            name = meta.get("name")
            if name is not None and not isinstance(name, str):
                issues.append(SceneIssue("metadata.name", "must be a string"))
            seed = meta.get("seed")
            if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
                issues.append(SceneIssue("metadata.seed", "must be an integer"))
    if issues:
        raise SceneFormatError(issues)
    try:
        scene = Scene(dimension=d, bodies=tuple(bodies), curves=tuple(curves),
                      ball_center=tuple(center), ball_radius=radius)
    except ValueError as exc:
        raise SceneFormatError([SceneIssue("scene", str(exc))]) from exc
    report = validate_scene(scene)
    if not report.ok:
        raise SceneFormatError([SceneIssue(f"scene.{v.kind}{list(v.subjects)}", v.detail)
                                for v in report.violations])
    return SceneDocument(scene, name, seed)


def parse_scene(text: str) -> Scene:
    """Strict parse returning a validated scene."""
    return parse_scene_document(text).scene


def serialize_scene(scene: Scene, name: Optional[str] = None,
                    seed: Optional[int] = None) -> str:
    """Render a scene document; floats round-trip bit-exactly through parse."""
    doc: dict = {
        "dimension": scene.dimension,
        "ball": {"center": list(scene.ball_center), "radius": scene.ball_radius},
    }
    if scene.bodies:
        bodies = []
        for b in scene.bodies:
            entry = {"kind": b.kind, "center": list(b.center),
                     "semiaxes": list(b.semiaxes)}
            rot = np.asarray(b.rotation)
            if b.kind == "ellipsoid" and not np.array_equal(rot, np.eye(scene.dimension)):
                entry["rotation"] = [list(row) for row in b.rotation]
            bodies.append(entry)
        doc["bodies"] = bodies
    if scene.curves:
        curves = []
        for c in scene.curves:
            arcs = []
            for a in c.arcs:
                if isinstance(a, EllipticArc):
                    entry = {"type": "elliptic", "center": list(a.center),
                             "semiaxes": list(a.semiaxes), "angles": list(a.angles)}
                else:
                    entry = {"type": "segment", "points": [list(a.start), list(a.end)]}
                if a.tags:
                    entry["tags"] = sorted(a.tags)
                arcs.append(entry)
            curves.append({"arcs": arcs})
        doc["curves"] = curves
    meta = {}
    if name is not None:
        meta["name"] = name
    if seed is not None:
        meta["seed"] = seed
    if meta:
        doc["metadata"] = meta
    return json.dumps(doc, indent=2) + "\n"
