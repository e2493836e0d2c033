"""Command-line harness: scene validation, tracing, spectra, and the
rigidity experiments, with deterministic CSV emission.

Each command parses its inputs, calls the library and prints or writes the
result; the rules themselves live in the library. ``compare`` groups the
rows of two spectrum CSVs by their source columns and applies
``rigidity.compare_cells`` to the sorted union of those cells. A CSV has
rows only for cells with times, so a cell empty in both tables is not among
them: ``cells`` and ``matched_fraction`` count only cells with a time in at
least one table, and differ from ``compare_spectra``, which counts such a
cell as matched, whenever the grid has one.
``reconstruct`` reads the samples back from a travel CSV, whose rows carry
every sample field except the pair index, and passes them to
``reconstruct_boundary``. A malformed CSV row is a contract error naming the
file and line.

Exit codes: 0 success, 1 contract or validation error, 2 I/O error.
Environment: SCATTERLAB_PRECISION overrides the significant digits used for
CSV floats (default 17, the exact round-trip width); SCATTERLAB_THREADS
sets the worker count for the travel search.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .dynamics import PhaseState, TraceLimits, trace
from .rigidity import (LivshitsParams, accessible_coverage, compare_cells,
                       livshits_demo, reconstruct_boundary,
                       reflection_count_probe, samples_table, sphere_probes)
from .scenefile import SceneFormatError, parse_scene_document
from .spectra import (ContractError, TravellingTimeSample, scan_sls,
                      travelling_time_spectrum)

_DEF_PRECISION = 17


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ContractError(f"{where}: expected a finite number, got {text!r}")
    return value


def _integer(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ContractError(f"{where}: expected an integer, got {text!r}") from None


def _env_int(name: str, default: int, lo: int, hi: float = math.inf) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = _integer(raw, name)
    if not lo <= value <= hi:
        bound = f"at least {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ContractError(f"{name} must be {bound}, got {value}")
    return value


def _precision() -> int:
    return _env_int("SCATTERLAB_PRECISION", _DEF_PRECISION, 1, 17)


def _threads() -> int:
    return _env_int("SCATTERLAB_THREADS", 1, 1)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene_document(fh.read())


def _vector(text: str, where: str) -> tuple:
    return tuple(_finite(v, where) for v in text.split(","))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*lines, ""]))


def _itinerary_str(itin) -> str:
    return "|".join(str(i) for i in itin)


def write_sls_csv(table, path, prec: int):
    d = len(dict(table.grid)["ball_center"])
    header = ([f"omega_{i+1}" for i in range(d)]
              + [f"impact_{i+1}" for i in range(d - 1)]
              + [f"theta_{i+1}" for i in range(d)]
              + ["T", "reflections", "grazing", "itinerary"])
    row = ",".join([f"%.{prec}g"] * (3 * d) + ["%d", "%d", "%s"])
    _write_lines(path, [",".join(header)] + [
        row % (*s.omega, *s.impact, *s.theta, s.sojourn, s.reflections, s.grazing,
               _itinerary_str(s.itinerary)) for s in table.samples])


def _travel_header(d: int) -> list:
    return ([f"x_{i+1}" for i in range(d)] + [f"y_{i+1}" for i in range(d)]
            + ["t", "reflections", "residual", "itinerary"]
            + [f"dir_in_{i+1}" for i in range(d)] + [f"dir_out_{i+1}" for i in range(d)])


def write_travel_csv(table, path, prec: int):
    d = len(dict(table.grid)["ball_center"])
    g = f"%.{prec}g"
    row = ",".join([g] * (2 * d + 1) + ["%d", g, "%s"] + [g] * (2 * d))
    _write_lines(path, [",".join(_travel_header(d))] + [
        row % (*s.x, *s.y, s.t, s.reflections, s.residual, _itinerary_str(s.itinerary),
               *s.dir_in, *s.dir_out) for s in table.samples])


def write_reconstruct_csv(estimate, path, prec: int):
    d = estimate.points.shape[1]
    header = ([f"p_{i+1}" for i in range(d)]
              + [f"source_x_{i+1}" for i in range(d)]
              + [f"source_y_{i+1}" for i in range(d)] + ["t"])
    row = ",".join([f"%.{prec}g"] * (3 * d + 1))
    _write_lines(path, [",".join(header)] + [
        row % (*p, *x, *y, t) for p, (x, y, t, _) in zip(estimate.points.tolist(),
                                                           estimate.provenance)])


def _read_csv(path):
    """Header and (line number, fields) rows of a CSV; every row must have
    as many fields as the header."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(no, line.rstrip("\n").split(","))
                for no, line in enumerate(fh, 1) if line.strip()]
    if not rows:
        raise ContractError(f"{path}: empty CSV")
    (_, header), rows = rows[0], rows[1:]
    for no, row in rows:
        if len(row) != len(header):
            raise ContractError(f"{path}:{no}: {len(row)} fields, but the header "
                                f"has {len(header)}")
    return header, rows


def _read_csv_groups(path):
    """Group a spectrum CSV by its source cell key; returns (kind, {key: times})."""
    header, rows = _read_csv(path)
    if header[0].startswith("omega_"):
        kind = "sls"
        n_key = 2 * sum(1 for h in header if h.startswith("omega_")) - 1
        t_name = "T"
    elif header[0].startswith("x_"):
        kind = "travel"
        n_key = 2 * sum(1 for h in header if h.startswith("x_"))
        t_name = "t"
    else:
        raise ContractError(f"{path}: unrecognized CSV header")
    if t_name not in header:
        raise ContractError(f"{path}: the header has no '{t_name}' column")
    t_col = header.index(t_name)
    groups: dict = {}
    for no, row in rows:
        groups.setdefault(tuple(row[:n_key]), []).append(_finite(row[t_col], f"{path}:{no}"))
    return kind, groups


def read_travel_csv(path) -> list[TravellingTimeSample]:
    """The samples of a travel CSV written by ``write_travel_csv``, in row
    order; ``pair`` is not stored, so it is set to the row index."""
    header, rows = _read_csv(path)
    d = sum(1 for h in header if h.startswith("x_"))
    if d == 0 or header != _travel_header(d):
        raise ContractError(f"{path}: not a travelling-time CSV with dir_in and "
                            "dir_out columns")
    samples = []
    for k, (no, row) in enumerate(rows):
        where = f"{path}:{no}"
        itinerary = row[2 * d + 3]
        samples.append(TravellingTimeSample(
            pair=k,
            x=tuple(_finite(v, where) for v in row[:d]),
            y=tuple(_finite(v, where) for v in row[d:2 * d]),
            t=_finite(row[2 * d], where),
            reflections=_integer(row[2 * d + 1], where),
            dir_in=tuple(_finite(v, where) for v in row[2 * d + 4:3 * d + 4]),
            dir_out=tuple(_finite(v, where) for v in row[3 * d + 4:]),
            residual=_finite(row[2 * d + 2], where),
            itinerary=(tuple(_integer(i, where) for i in itinerary.split("|"))
                       if itinerary else ()),
        ))
    return samples


def _cmd_validate(args) -> int:
    # Parsing validates: a scene with violations raises SceneFormatError.
    _load(args.scene)
    print("OK")
    return 0


def _cmd_trace(args) -> int:
    doc = _load(args.scene)
    state = PhaseState(_vector(args.start, "--start"),
                       _unit(_vector(args.direction, "--direction")))
    limits = TraceLimits(max_reflections=args.max_reflections)
    record = trace(doc.scene, state, limits)
    g, d = f"%.{_precision()}g", len(state.point)
    point = ",".join([g] * d)
    print(f"classification: {record.classification}")
    print(f"events: {len(record.events)}  reflections: {record.reflections}")
    print(f"total_length: {g % record.total_length}")
    for e in record.events:
        kind = "graze" if e.grazing else "bounce"
        print(f"  {kind} obstacle={e.obstacle} arc={e.arc} point=({point % e.point})")
    if args.out:
        header = ["obstacle", "arc", "grazing"] + [f"p_{i+1}" for i in range(d)] + ["cum_length"]
        row = f"%d,%s,%d,{point},{g}"
        _write_lines(args.out, [",".join(header)] + [
            row % (e.obstacle, "" if e.arc is None else e.arc, e.grazing, *e.point, e.path_length)
            for e in record.events])
    return 0


def _unit(v):
    n = math.hypot(*v)
    if n == 0.0:
        raise ContractError("direction must be nonzero")
    return tuple(c / n for c in v)


def _cmd_sls(args) -> int:
    doc = _load(args.scene)
    table = scan_sls(doc.scene, _unit(_vector(args.omega, "--omega")), args.grid)
    prec = _precision()
    if args.out:
        write_sls_csv(table, args.out, prec)
    diag = table.diagnostics_dict()
    print(f"samples: {len(table.samples)}  cutoff: {diag.get('cutoff', 0)}")
    return 0


def _cmd_travel(args) -> int:
    doc = _load(args.scene)
    table = travelling_time_spectrum(
        doc.scene, n_points=args.points, min_sep_deg=args.min_sep_deg,
        depth=args.depth, threads=_threads())
    prec = _precision()
    if args.out:
        write_travel_csv(table, args.out, prec)
    diag = table.diagnostics_dict()
    print(f"pairs: {len(table.cells)}  samples: {len(table.samples)}  "
          f"dropped: {diag.get('dropped_clusters', 0)}  "
          f"newton_steps: {diag.get('newton_steps', 0)}")
    return 0


def _cmd_compare(args) -> int:
    kind_a, groups_a = _read_csv_groups(args.table_a)
    kind_b, groups_b = _read_csv_groups(args.table_b)
    if kind_a != kind_b:
        raise ContractError("cannot compare tables of different kinds")
    keys = sorted(set(groups_a) | set(groups_b))
    report = compare_cells([groups_a.get(k, ()) for k in keys],
                           [groups_b.get(k, ()) for k in keys], args.tol)
    print(f"cells: {len(report.per_cell)}  matched_fraction: {report.matched_fraction:.6f}")
    print(f"max_discrepancy: {report.max_discrepancy:.6g}  "
          f"sentinels: {report.sentinel_count}")
    print(f"verdict: {report.verdict}")
    return 0


def _require_seed(doc, command: str) -> int:
    if doc.seed is None:
        raise ContractError(f"metadata.seed is required for '{command}' "
                            "(reproducibility by construction)")
    return doc.seed


def _cmd_probe_counts(args) -> int:
    doc_a = _load(args.scene_a)
    doc_b = _load(args.scene_b)
    seed = _require_seed(doc_a, "probe-counts")
    probes = sphere_probes(doc_a.scene, args.n, seed)
    report = reflection_count_probe(doc_a.scene, doc_b.scene, probes)
    print(f"probes: {len(report.counts)}  equal_fraction: {report.equal_fraction:.6f}")
    return 0


def _cmd_coverage(args) -> int:
    doc = _load(args.scene)
    seed = _require_seed(doc, "coverage")
    report = accessible_coverage(doc.scene, args.rays, args.eps, seed=seed)
    for i, cov in enumerate(report.body_coverage):
        print(f"body {i}: coverage {cov:.6f}")
    for (oid, ai, tags, cov) in report.arc_coverage:
        tag = f" tags={'/'.join(tags)}" if tags else ""
        print(f"curve {oid} arc {ai}: coverage {cov:.6f}{tag}")
    print(f"escaped: {report.n_escaped}  cutoff: {report.n_cutoff}")
    if args.out:
        d = doc.scene.dimension
        row = ",".join(["%d"] + [f"%.{_precision()}g"] * d)
        _write_lines(args.out, [",".join(["obstacle"] + [f"p_{i+1}" for i in range(d)])] + [
            row % (oid, *p) for oid, pts in report.unreached for p in pts.tolist()])
    return 0


def _cmd_reconstruct(args) -> int:
    table = samples_table(read_travel_csv(args.table))
    ball = _vector(args.ball, "--ball")
    estimate = reconstruct_boundary(table, ball[:-1], ball[-1])
    prec = _precision()
    if args.out:
        write_reconstruct_csv(estimate, args.out, prec)
    print(f"points: {len(estimate.points)}  skipped: {estimate.skipped}")
    return 0


def _cmd_demo_livshits(args) -> int:
    params = LivshitsParams(n_offsets=args.offsets, n_angles=args.angles,
                            n_focal=args.focal)
    report = livshits_demo(params)
    prec = _precision()
    print(f"hidden hits (bump, flat): {report.hidden_hits}")
    print(f"plate underside hits (bump, flat): {report.plate_underside_hits}")
    print(f"focal reflection max error: {report.focal_max_error:.3g}")
    print(f"max |exit crossing|: {report.max_abs_exit_crossing:.6f} "
          f"(foci at +-{params.focal_half_distance})")
    print(f"exits between foci: {report.exits_between_foci}")
    print(f"spectra matched_fraction: {report.comparison.matched_fraction:.6f} "
          f"verdict: {report.comparison.verdict}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for label, table in zip(("bump", "flat"), report.tables):
            row = f"%d,%.{prec}g"
            lines = ["ray,length"] + [row % (i, t) for i, cell in enumerate(table.cells)
                                      for t in cell]
            _write_lines(os.path.join(args.out_dir, f"livshits_{label}.csv"), lines)
    ok = (report.hidden_hits == (0, 0) and report.plate_underside_hits == (0, 0)
          and report.exits_between_foci
          and report.comparison.verdict == "indistinguishable")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scatterlab",
                                     description="billiard scattering laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scene document")
    p.add_argument("scene")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trace", help="trace one trajectory")
    p.add_argument("scene")
    p.add_argument("--start", required=True, help="comma-separated point")
    p.add_argument("--direction", required=True, help="comma-separated direction")
    p.add_argument("--max-reflections", type=int, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sls", help="sojourn-time scan over one incoming direction")
    p.add_argument("scene")
    p.add_argument("--omega", required=True)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sls)

    p = sub.add_parser("travel", help="travelling-time spectrum table")
    p.add_argument("scene")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--min-sep-deg", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_travel)

    p = sub.add_parser("compare", help="compare two spectrum CSVs")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("probe-counts", help="reflection-count equality probe")
    p.add_argument("scene_a")
    p.add_argument("scene_b")
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(func=_cmd_probe_counts)

    p = sub.add_parser("coverage", help="accessible-boundary coverage")
    p.add_argument("scene")
    p.add_argument("--rays", type=int, default=100000)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--out", help="unreached-boundary atlas CSV")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("reconstruct", help="boundary estimate from travelling times")
    p.add_argument("table", help="travelling-time CSV written by 'travel'")
    p.add_argument("--ball", required=True, help="cx,cy,...,radius")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("demo-livshits", help="non-uniqueness demonstration")
    p.add_argument("--offsets", type=int, default=400)
    p.add_argument("--angles", type=int, default=250)
    p.add_argument("--focal", type=int, default=1000)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_demo_livshits)
    return parser


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SceneFormatError, ContractError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
