#!/usr/bin/env python3
"""Repeat ``run.py`` over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 10 --sets 2 --out bench/trajectory/BENCH_x.json

For every workload and end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json; the ungated figures get the same summary.  With
``--sets 2`` the same seeds run again after the first set has finished on
every workload, and each metric's second median is compared with the
first against its bound.  With ``--traced-seed`` it adds one traced run
per workload.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload, seed, seconds, trace):
    """Run ``run.py`` once; return the record it wrote."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    path = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarise(records, traced=None):
    """Spread of every figure over the untraced records of one workload."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    entry = {"seeds": [r["provenance"]["seed"] for r in records],
             "attempted": sum(r["attempted"] for r in records),
             "failed": sum(r["failed"] for r in records),
             "end_to_end": {}, "reported": {}}
    for name, bound in bounds.items():
        entry["end_to_end"][name] = dict(
            spread([r["end_to_end"][name] for r in records]), bound=bound)
    for name in records[0]["reported"]:
        entry["reported"][name] = spread([r["reported"][name] for r in records])
    entry["reported"]["calibration_ms"] = spread(
        [r["timing"]["calibration_ms"] for r in records])
    if traced is not None:
        entry["per_layer"] = {"seed": traced["provenance"]["seed"],
                              "values": traced["layers"],
                              "sources": traced["layer_sources"],
                              "module_shares": traced["module_shares"]}
    return entry


def agreement(first, second):
    """Per workload and end-to-end metric: the second set's median against
    the first's, as a share of the first, and whether it is within the
    metric's bound either way."""
    out = {}
    for workload, entry in first.items():
        out[workload] = {}
        for name, stats in entry["end_to_end"].items():
            change = second[workload]["end_to_end"][name]["median"] / stats["median"] - 1
            out[workload][name] = {"change": change, "bound": stats["bound"],
                                   "within": abs(change) <= stats["bound"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"seconds": args.seconds, "sets": []}
    for n in range(args.sets):
        entries = {}
        for workload in args.workloads:
            records = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
            traced = (run_once(workload, args.traced_seed, args.seconds, 1)
                      if args.traced_seed is not None and n == 0 else None)
            entries[workload] = summarise(records, traced)
            summary.setdefault("provenance", {
                k: v for k, v in records[0]["provenance"].items()
                if k not in ("workload", "seed", "trace")})
            for name, stats in entries[workload]["end_to_end"].items():
                print(f"set {n + 1} {workload:<14} {name:<12} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f} (bound {stats['bound']}, "
                      f"target < {stats['bound'] / 3:.4f})", flush=True)
        summary["sets"].append(entries)
    if args.sets > 1:
        summary["agreement"] = agreement(summary["sets"][0], summary["sets"][-1])
        for workload, metrics in summary["agreement"].items():
            for name, a in metrics.items():
                print(f"agreement {workload:<14} {name:<12} change {a['change']:+.4f} "
                      f"(bound {a['bound']}) {'ok' if a['within'] else 'OUTSIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
