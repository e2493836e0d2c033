"""scatterlab benchmark: one workload per run, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload rigidity-2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload in turn
    python3 bench/run.py --tiny              # every workload at small size
    python3 bench/run.py --write-reference   # store reference cells (default seed)

An untraced run (``--trace 0``) sets up ``SETUP_REPEATS`` times in fresh
processes, then repeats the workload's job list until ``--seconds`` is spent
(at least ``MIN_REPEATS`` times), timing a reference kernel around each
repeat, and reports the end-to-end metrics (see ``reference_seconds``). A
traced run (``--trace 1``) repeats the job untraced, runs it once with spans,
rebuilds the default-seed tables for the reference comparison, runs the
kernel probes and reports the per-layer metrics. Both print a summary, one ``record`` line
of JSON with the seed and the run environment, and, last, the result object.
Records and spans are also written to ``.bench_out/``.

scatterlab is imported from ``src/`` next to this directory and from nowhere
else; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1     # the seed of the reference cells in ref/
SETUP_REPEATS = 9
MIN_REPEATS = 3
# Share of a traced run's --seconds spent on the untraced repeats that the
# tracing overhead is measured against.
TRACED_BASELINE_SHARE = 0.4


def import_scatterlab():
    package = SRC / "scatterlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no scatterlab sources at {package}")
    sys.path.insert(0, str(SRC))
    import scatterlab

    if Path(scatterlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported scatterlab from {scatterlab.__file__}, not {package}")


def timed_setup(name: str, seed: int, tiny: bool = False):
    """Import scatterlab, parse the scene documents, generate the inputs."""
    t0 = time.perf_counter()
    import_scatterlab()
    import workloads

    inp = workloads.setup(workloads.WORKLOADS[name], seed, tiny)
    return inp, time.perf_counter() - t0


def setup_in_fresh_processes(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scatterlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(threads: int, load_start) -> dict:
    import numpy
    import scipy

    load_end = loadavg()
    nproc = os.cpu_count()
    loads = [l[0] for l in (load_start, load_end) if l]
    return {"git_revision": git_revision(), "src_sha256": src_digest(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": threads,
            "loadavg_start": load_start, "loadavg_end": load_end,
            "overloaded": any(l > nproc for l in loads)}


def repeat_job(w, inp, seconds: float, min_repeats: int, state: dict) -> list[tuple]:
    """Run the job list until ``seconds`` are spent.

    Returns, per repeat, its wall time and the reference kernel's time
    around it: the mean of one measurement just before the repeat and one
    just after. The first repeat of the run is checked in full; each later
    one must reproduce its output fingerprint, or all its items count as
    failed.
    """
    import hostspeed

    repeats = []
    deadline = time.perf_counter() + seconds
    while True:
        before = hostspeed.measure()
        t0 = time.perf_counter()
        out = w.job(inp, NullTracer(), str(OUT_DIR))
        wall = time.perf_counter() - t0
        after = hostspeed.measure()
        repeats.append((wall, 0.5 * (before + after)))
        account(w, inp, out, state)
        if len(repeats) >= min_repeats and \
                time.perf_counter() + statistics.median(r[0] for r in repeats) > deadline:
            return repeats


def reference_seconds(repeats: list[tuple]) -> float:
    """The job's time on the reference host: the median over repeats of its
    wall time over the kernel's time around it, times ``REFERENCE_S``.

    The host switches this VM's vCPUs between speeds every fraction of a
    second to every few seconds, and its average speed drifts by a third
    over minutes. Both the job and the kernel run at the speed of the
    moment, so their ratio keeps only the job's own cost.
    """
    import hostspeed

    return hostspeed.REFERENCE_S * statistics.median(wall / k for wall, k in repeats)


def account(w, inp, out, state: dict):
    items = w.items(inp)
    state["attempted"] += items
    if "fingerprint" not in state:
        chk = w.check(inp, out)
        state["fingerprint"] = w.fingerprint(out)
        state["failed"] += chk.failed
        state["notes"] += chk.notes
        state["oracle_samples"] = chk.oracle_samples
    elif w.fingerprint(out) != state["fingerprint"]:
        state["failed"] += items
        state["notes"].append("a repeat's output differs from the first repeat's")


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def untraced(w, inp, args, state) -> dict:
    setups = setup_in_fresh_processes(w.name, args.seed)
    repeats = repeat_job(w, inp, args.seconds, MIN_REPEATS, state)
    solve = reference_seconds(repeats)
    walls = [wall for wall, _ in repeats]
    kernels = [k for _, k in repeats]
    items = w.items(inp)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    state["detail"] = {"job_wall_s": spread(walls), "kernel_s": spread(kernels),
                       "setup_s": spread(setups), "job_wall_s_all": walls,
                       "kernel_s_all": kernels, "setup_s_all": setups, "items": items}
    return {"solve_s": solve, "items_per_s": items / solve,
            "setup_s": statistics.median(setups), "peak_rss_mb": rss_kb / 1024.0}


def traced(w, inp, args, state) -> dict:
    import layers
    import numpy as np
    import workloads
    from spans import Tracer

    run_id = f"{w.name}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tr = Tracer(run_id)
    parse_s = layers.parse_probe(tr, inp["docs"])
    baseline = [wall for wall, _ in
                repeat_job(w, inp, TRACED_BASELINE_SHARE * args.seconds, 2, state)]
    t0 = time.perf_counter()
    with tr.span("bench.job"):
        out = w.job(inp, tr, str(OUT_DIR))
    solve = time.perf_counter() - t0
    account(w, inp, out, state)
    with tr.span("bench.reference"):
        ref_out = out
        if args.seed != DEFAULT_SEED:
            ref_inp = workloads.setup(w, DEFAULT_SEED)
            ref_out = w.job(ref_inp, NullTracer(), str(OUT_DIR))
        changes = layers.cell_changes(layers.load_reference(w.name), w.tables(ref_out))
    rng = np.random.default_rng([args.seed, 1])
    metrics = {"scenefile.parse_s": parse_s}
    metrics.update(layers.geometry_probe(tr, rng))
    metrics.update(layers.dynamics_probe(tr, rng, list(inp["scenes"].values())))
    first_scene = next(iter(inp["scenes"].values()))
    metrics.update(layers.spectra_probe(tr, rng, first_scene,
                                        inp.get("n_points", 12), inp.get("phase", 0.0)))
    metrics.update(layers.job_metrics(tr, out["stats"], changes))
    metrics.update(w.layer_values(out))
    self_times = tr.self_times()
    for layer in layers.LAYERS:
        metrics[f"self_s.{layer}"] = self_times.get(layer, 0.0)
    metrics["trace.overhead_s"] = solve - statistics.median(baseline)
    state["detail"] = {"traced_solve_s": solve, "untraced_solve_s": spread(baseline),
                       "self_s": self_times,
                       "changed_cells": [[table, cell, shift if math.isfinite(shift) else None]
                                         for table, cell, _, _, shift in changes[:50]],
                       "changed_cell_count": len(changes)}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{w.name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tr.records(), fh)
    return metrics


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args) -> int:
    load_start = loadavg()
    spec = benchmark_spec()
    inp, setup_here = timed_setup(args.workload, args.seed)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    state = {"attempted": 0, "failed": 0, "notes": []}
    values = traced(w, inp, args, state) if args.trace else untraced(w, inp, args, state)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        values.setdefault(name, 0.0)
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_in_process_s": setup_here,
              "attempted": state["attempted"], "failed": state["failed"],
              "fail_frac": state["failed"] / state["attempted"],
              "oracle_samples": state.get("oracle_samples", 0),
              "check_notes": state["notes"], "detail": state["detail"],
              "inputs": {k: v for k, v in inp.items()
                         if isinstance(v, (int, float, str)) and k != "docs"},
              "env": environment(inp.get("threads", 1), load_start), "metrics": metrics}
    with open(OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{w.name} seed={args.seed} trace={args.trace} "
          f"nproc={record['env']['nproc']} threads={record['env']['threads']} "
          f"load={load_start}->{record['env']['loadavg_end']}"
          + (" OVERLOADED" if record["env"]["overloaded"] else ""))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {record['fail_frac']:.6g} "
          f"({state['failed']} of {state['attempted']} items)")
    for note in state["notes"]:
        print(f"  check: {note}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": state["failed"] == 0, "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


def tiny(names) -> int:
    import_scatterlab()
    import workloads
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    bad = 0
    for name in names:
        w = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        inp = workloads.setup(w, DEFAULT_SEED, tiny=True)
        out = w.job(inp, Tracer(name), str(OUT_DIR))
        chk = w.check(inp, out)
        ok = chk.failed == 0 and chk.items > 0
        bad += not ok
        print(f"tiny {name}: {'ok' if ok else 'FAILED'} {chk.failed} of {chk.items} items "
              f"failed, {chk.oracle_samples} oracle samples, {time.perf_counter() - t0:.1f} s")
        for note in chk.notes:
            print(f"  check: {note}")
    return 1 if bad else 0


def write_references(names) -> int:
    import_scatterlab()
    import layers
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        w = workloads.WORKLOADS[name]
        inp = workloads.setup(w, DEFAULT_SEED)
        out = w.job(inp, NullTracer(), str(OUT_DIR))
        chk = w.check(inp, out)
        if chk.failed:
            print(f"{name}: checks failed, reference not written: {chk.notes}")
            return 1
        layers.write_reference(name, DEFAULT_SEED, w.tables(out))
        print(f"{name}: reference written")
    return 0


def main(argv=None) -> int:
    spec = benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workload_names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workload", choices=workload_names,
                   help="the workload to measure (default: each in turn)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run every workload (or --workload) once at small size and "
                        "exit 1 unless all output checks pass")
    p.add_argument("--write-reference", action="store_true",
                   help="store the default-seed cells of every workload (or --workload)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _, seconds = timed_setup(args.workload, args.seed)
        print(f"{seconds:.9f}")
        return 0
    names = [args.workload] if args.workload else workload_names
    if args.tiny:
        return tiny(names)
    if args.write_reference:
        return write_references(names)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be at least 1 and --seed non-negative")
    if args.workload is None:
        # Each workload in its own process, so peak_rss_mb is its own.
        for name in names:
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
