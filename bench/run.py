#!/usr/bin/env python3
"""Benchmark of optosteer, run against the checked-out ``src/`` with no install.

    python3 bench/run.py --workload sweep-refine --seed 1 --seconds 15 --trace 0

Workloads: cli-panels, sweep-refine, point-queries, ode-oracle (see
README.md).  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-module
metrics.  The lines before it print the same numbers with their units,
sample counts and provenance, and a fuller record is written under
``bench/out/``.

Every workload runs in its own process (``worker.py``) with
``PYTHONPATH=src`` and single-threaded BLAS.  At most one child runs at a
time.  ``setup_s`` comes from ``SETUP_SAMPLES`` fresh workload processes:
per process, the time from spawning it to its ``ready`` line over that of
a ``workloads.REFERENCE_CMD`` process spawned just before it; the median of those
ratios, read as seconds at ``SETUP_REF_S`` per reference process.  The
metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_CMD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("cli-panels", "sweep-refine", "point-queries", "ode-oracle")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Fresh workload processes behind one setup_s value (the last one also
#: runs the timed phase).
SETUP_SAMPLES = 11
#: Fresh interpreters behind each import metric.
IMPORT_SAMPLES = 7
#: Whole-run ceiling; the run is abandoned (non-zero exit) past it.
RUN_TIMEOUT_S = 170.0

#: Metric names and units, as the benchmark's contract file lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Printed and recorded beside the end-to-end metrics, but not gated: on a
#: shared host the plain timings follow the other tenants' load.
REPORTED = {
    "setup_wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "failed_ratio": "1",
}
#: setup_s reads set-up time over the reference's as seconds at this
#: reference time (about the reference host's).
SETUP_REF_S = 0.15


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(THREAD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the bytecode cache fill
    return env


def check_checkout():
    needed = [SRC / "optosteer" / "__init__.py", SRC / "optosteer" / "cli.py",
              ROOT / "tests" / "goldens" / "panel_2a.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not an optosteer checkout; missing " + ", ".join(missing))


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def spawn(what, cmd, env, deadline):
    """Run ``cmd`` to its end; return (seconds from spawning it to its
    ``ready`` line, the rest of its stdout)."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{what} exceeded the time limit") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode})")
    return ready, out


def setup_sample(args, env, deadline, setup_only):
    """A reference process, then a workload process; return (setup seconds,
    reference seconds, the workload's result or None)."""
    reference, _ = spawn("reference process", REFERENCE_CMD, env, deadline)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    setup, out = spawn("workload process", cmd, env, deadline)
    if setup_only:
        return setup, reference, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return setup, reference, json.loads(lines[-1])


#: Run in a fresh interpreter: the import time of numpy, then of optosteer
#: on top of it, each read around its own import statement.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import optosteer; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


def import_metrics(env, deadline):
    """Interpreter start, then numpy's and optosteer's import, each net of
    the stage before it, in fresh interpreters."""
    start, numpy_s, optosteer_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True, timeout=remaining(deadline))
        start.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=remaining(deadline))
        a, b = proc.stdout.split()
        numpy_s.append(float(a))
        optosteer_s.append(float(b))
    return {
        "import.interpreter_ms": statistics.median(start) * 1e3,
        "import.numpy_ms": statistics.median(numpy_s) * 1e3,
        "import.optosteer_ms": statistics.median(optosteer_s) * 1e3,
    }


def provenance(args, versions):
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=30)
        lines = proc.stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:  # not a parent repo's
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "optosteer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": THREAD_ENV,
    }


def select(names, values):
    """The measured values of the metrics ``names``, in their order."""
    missing = set(names) - set(values)
    if missing:
        raise BenchError("no measurement for " + ", ".join(sorted(missing)))
    return {k: values[k] for k in names}


def measure(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    check_checkout()
    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    setup_sample(args, env, deadline, setup_only=True)  # fills the bytecode cache
    setups = [setup_sample(args, env, deadline, setup_only=True)[:2]
              for _ in range(SETUP_SAMPLES - 1)]
    *last, result = setup_sample(args, env, deadline, setup_only=False)
    setups.append(last)

    values = {
        "setup_s": statistics.median(s / r for s, r in setups) * SETUP_REF_S,
        "setup_wall_s": statistics.median(s for s, _ in setups),
        "op_p50_cal": result["op_p50_cal"],
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_tail_ms"],
        "rows_per_s": result["rows_per_s"],
        "failed_ratio": result["failed"] / result["attempted"],
    }
    record = {
        "provenance": provenance(args, result["versions"]),
        "end_to_end": select(END_TO_END, values),
        "reported": select(REPORTED, values),
        "setup_samples": [{"wall_s": s, "reference_s": r} for s, r in setups],
        "timing": {k: result[k] for k in (
            "samples", "kinds", "tail_percentile", "rows", "busy_s",
            "calibration_ms", "calibrations")},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "first_error": result["first_error"],
    }
    if args.trace:
        layers = {k: v["value"] for k, v in result["layers"].items()}
        layers.update(import_metrics(env, deadline))
        record.update(layers=select(PER_LAYER, layers),
                      layer_sources={k: v["source"] for k, v in result["layers"].items()},
                      module_shares=result["module_shares"], spans=result["spans"],
                      spans_file=str(Path(result["spans_file"]).relative_to(ROOT)),
                      traced_samples=result["traced_samples"])
    return record


def report(args, record):
    p = record["provenance"]
    t = record["timing"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"provenance: commit {p['git_commit']}  src {p['src_sha256'][:12]}  "
          f"python {p['python']}  numpy {p['numpy']}  nproc {p['nproc']}  "
          f"cpu {p['cpu_model']}  threads "
          + " ".join(f"{k}={v}" for k, v in p["threads"].items()))
    notes = {
        "setup_s": f"median over {len(record['setup_samples'])} fresh processes of set-up "
                   f"time / reference process time, x {SETUP_REF_S:g} s",
        "setup_wall_s": f"median of the same {len(record['setup_samples'])} set-up times; "
                        "not gated",
        "op_p50_cal": f"p50 per op kind of op / calibration, weighted by share; "
                      f"{t['samples']} ops, {t['kinds']} kinds",
        "peak_rss_mb": "largest CLI child" if args.workload == "cli-panels"
                       else "workload process",
        "op_p50_ms": f"p50 of {t['samples']} op samples; not gated",
        "op_p90_ms": f"p{t['tail_percentile']} of {t['samples']} op samples; not gated",
        "rows_per_s": f"{t['rows']} rows in {t['busy_s']:.3f} s of ops; not gated",
        "failed_ratio": f"{record['failed']} of {record['attempted']} ops failed",
        "calibration_ms": f"median of {t['calibrations']} calibration runs; 1 cal",
    }
    values = dict(record["end_to_end"], **record["reported"],
                  calibration_ms=t["calibration_ms"])
    for name, unit in {**END_TO_END, **REPORTED, "calibration_ms": "ms"}.items():
        print(f"  {name:<20} {values[name]:>14.6g} {unit:<8} ({notes[name]})")
    if record["first_error"]:
        print(f"  first failure: {record['first_error']}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            source = record["layer_sources"].get(name, "run.py")
            print(f"  {name:<36} {record['layers'][name]:>14.6g} {unit:<8} ({source})")
        shares = "  ".join(f"{k} {v:.1%}" for k, v in record["module_shares"].items())
        print(f"  self-time shares of traced op time: {shares}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    report(args, record)
    print(f"record: {out_file.relative_to(ROOT)}")
    names = PER_LAYER if args.trace else END_TO_END
    values = record["layers"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
