"""One workload process, started by ``run.py``.

It imports the package, builds the workload's inputs from the seed, loads
the expected outputs, warms up, and then writes ``ready`` on stdout: the
time from its start to that line is one ``setup_s`` sample.  Unless
``--setup-only`` is given it then runs the timed closed loop, checks every
output, and writes one JSON result line.

Traced runs (``--trace 1``) run the workload untraced for half the time,
then traced for the other half (``owned_metrics``), then a few probe ops of
every other workload the same way, so that each per-module metric is
measured by the workload that owns it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import optosteer
import tracing
import workloads

#: Probe ops of each workload in a phase of ``owned_metrics`` (``cli-panels``
#: takes two of each format).
PROBE_OPS = {"sweep-refine": 3, "point-queries": 300, "ode-oracle": 3}
#: Op time between two runs of the calibration kernel.
CALIBRATE_EVERY_S = 0.05
#: Op samples one phase keeps (see ``Loop``).
SAMPLE_CAPACITY = 1 << 16


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def calibration_kernel():
    """Fixed work in the program's own mix (frozen dataclasses, ``math``,
    calls on tiny numpy arrays) that never changes with the program."""
    acc = 0.0
    for k in range(400):
        x = 1.0 + k * 1e-3
        pair = _Pair(x, math.expm1(-x))
        m = np.zeros((4, 4))
        m[0, 0], m[2, 2] = pair.a, pair.b
        if np.all(np.isfinite(m)):
            c = m.copy()
            c.setflags(write=False)
            acc += math.log(c[0, 0])
    return acc


def calibrate():
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


def tail_percentile(n):
    """The highest percentile, at most p90 and at least p50, with ten or more
    of ``n`` samples beyond it."""
    return max(50, min(90, math.floor(100.0 * (1.0 - 10.0 / n))))


class Loop:
    """Outcome of one closed-loop phase.

    Per-op samples go to fixed-size arrays that are written through once
    when the phase starts, so that the bookkeeping adds the same memory to
    the process however many ops run.  When they fill up, every other
    sample is dropped and from then on only every other op is kept: the
    samples stay a uniform subsample of the phase's ops.  Counts (ops,
    failures, rows, busy time) cover every op.
    """

    def __init__(self):
        self.latencies = np.full(SAMPLE_CAPACITY, np.nan)
        self.cal_ratios = np.full(SAMPLE_CAPACITY, np.nan)
        self.kind = np.full(SAMPLE_CAPACITY, -1, dtype=np.int8)
        self.ok = np.full(SAMPLE_CAPACITY, False)
        self.n = 0
        self.stride = 1
        self.calibrations = array("d")
        self.kinds = []
        self.attempted = self.failed = self.rows = 0
        self.info_sum = self.info_max = 0.0  # info is a count or a deviation, >= 0
        self.busy = 0.0
        self.first_error = None

    def add(self, dt, cal, kind, ok):
        """Count one op and keep its sample if it falls on the stride."""
        op, self.attempted = self.attempted, self.attempted + 1
        self.busy += dt
        if op % self.stride:
            return
        if self.n == SAMPLE_CAPACITY:
            half = SAMPLE_CAPACITY // 2
            for samples in (self.latencies, self.cal_ratios, self.kind, self.ok):
                samples[:half] = samples[0::2]
            self.n, self.stride = half, 2 * self.stride
        if kind not in self.kinds:
            self.kinds.append(kind)
        k = self.n
        self.latencies[k], self.cal_ratios[k] = dt, dt / cal
        self.kind[k], self.ok[k] = self.kinds.index(kind), ok
        self.n += 1

    def fail(self, i, why):
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"op {i}: {why}"

    def p50(self):
        return float(np.median(self.latencies[:self.n]))

    def p50_cal(self):
        """Per op kind, the median of each successful op's latency over the
        calibration kernel's latency next to it; averaged with the kinds'
        shares of those ops as weights."""
        ratios, kind, ok = (a[:self.n] for a in (self.cal_ratios, self.kind, self.ok))
        if not ok.any():  # every op failed; time the failures instead
            return float(np.median(ratios))
        kinds, counts = np.unique(kind[ok], return_counts=True)
        return float(sum(c / counts.sum() * np.median(ratios[ok & (kind == k)])
                         for k, c in zip(kinds, counts)))

    def summary(self):
        """The gated op_p50_cal plus the median, tail and throughput in
        seconds, with the counts behind them."""
        lat = self.latencies[:self.n]
        q = tail_percentile(self.n)
        return {
            "op_p50_cal": self.p50_cal(),
            "kinds": len(self.kinds),
            "calibration_ms": float(np.median(self.calibrations)) * 1e3,
            "calibrations": len(self.calibrations),
            "op_p50_ms": float(np.median(lat)) * 1e3,
            "op_tail_ms": float(np.percentile(lat, q)) * 1e3,
            "tail_percentile": q,
            "samples": self.n,
            "rows_per_s": self.rows / self.busy,
            "attempted": self.attempted,
            "failed": self.failed,
            "rows": self.rows,
            "busy_s": self.busy,
            "first_error": self.first_error,
        }


def calibration_for(work, op):
    """What ``op``'s latency is divided by: a reference process for an op
    that is a process of its own (``cli-panels``' untraced op), whose time
    is mostly process start and imports, which the kernel does not track;
    the calibration kernel for an op served in process."""
    if work.name == "cli-panels" and op == work.op:
        return work.reference_process
    return calibrate


def closed_loop(work, op, seconds=None, indices=None, tracer=None):
    """One client: the next op starts when the previous one returns.

    Runs until the ops have taken ``seconds`` in total, or over ``indices``.
    Op ``i`` uses input ``i % len(work.inputs)``.  Only the op is timed; the
    calibration (``calibration_for``) runs between ops at least every
    ``CALIBRATE_EVERY_S`` of op time, and each op is paired with the latest
    calibration.  Checking an op's output also happens between ops.
    """
    loop = Loop()
    calibration = calibration_for(work, op)
    order = iter(indices) if indices is not None else None
    i = -1
    cal, cal_at = None, 0.0
    while True:
        if order is not None:
            i = next(order, None)
            if i is None:
                break
        elif loop.busy >= seconds:
            break
        else:
            i += 1
        if cal is None or loop.busy - cal_at >= CALIBRATE_EVERY_S:
            cal, cal_at = calibration(), loop.busy
            loop.calibrations.append(cal)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op(i)
            else:
                with tracer.op_span(i):
                    result = op(i)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            dt = perf_counter() - t0
            result = None
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf_counter() - t0
            error = None
        if error is None:
            try:
                if not work.check(i, result):
                    error = "output failed its correctness check"
            except Exception as exc:  # malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        loop.add(dt, cal, work.kind(i), error is None)
        if error is not None:
            loop.fail(i, error)
            continue
        loop.rows += work.rows(i, result)
        if hasattr(work, "info"):
            info = work.info(i, result)
            loop.info_sum += info
            loop.info_max = max(loop.info_max, info)
    return loop


def probe_indices(work):
    """A few ops of ``work`` that cover its op kinds."""
    if work.name == "cli-panels":
        fmts = [work.fmt(i) for i in range(len(work.inputs))]
        return [fmts.index("csv"), fmts.index("json")] * 2
    return list(range(PROBE_OPS[work.name]))


@dataclass
class Owned:
    """What ``owned_metrics`` measured."""

    metrics: dict
    table: tracing.SpanTable
    untraced: Loop
    base: Loop
    traced: Loop
    loops: list


def owned_metrics(work, seconds=None):
    """The per-module metrics ``work`` owns.

    Runs ``work.op`` untraced, then (for ``cli-panels``) the in-process
    ``traced_op`` untraced, then ``traced_op`` traced: each phase for
    ``seconds`` of op time or, when ``seconds`` is None, over a few probe
    ops.  A metric that a timed phase was too short to see (no op of the
    kind it needs) comes from a probe phase instead.
    """
    phase = {"seconds": seconds} if seconds else {"indices": probe_indices(work)}
    untraced = closed_loop(work, work.op, **phase)
    base, extra = untraced, {}
    if work.name == "cli-panels":
        # The traced op serves the request in process; its untraced twin is
        # the baseline of the tracing overhead and the subtrahend of the
        # process overhead.
        base = closed_loop(work, work.traced_op, **phase)
        extra = {"subprocess_s": untraced.p50(), "inprocess_s": base.p50()}
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = closed_loop(work, work.traced_op, tracer=tracer, **phase)
    table = tracer.table()
    owned = Owned(tracing.layer_metrics(work, table, traced, extra), table,
                  untraced, base, traced, [untraced, traced])
    if base is not untraced:
        owned.loops.append(base)
    if seconds and any(v is None for v in owned.metrics.values()):
        probe = owned_metrics(work)
        owned.loops += probe.loops
        owned.metrics = {k: probe.metrics[k] if v is None else v
                         for k, v in owned.metrics.items()}
    return owned


def traced_run(work, args, env):
    own = owned_metrics(work, args.seconds / 2.0)
    metrics = {name: {"value": v, "source": work.name} for name, v in own.metrics.items()}
    loops = list(own.loops)
    for other in workloads.NAMES:
        if other != work.name:
            probe_work = workloads.build(other, args.seed, env)
            probe_work.warm_up()
            probe = owned_metrics(probe_work)
            loops += probe.loops
            metrics.update({name: {"value": v, "source": f"probe:{other}"}
                            for name, v in probe.metrics.items()})
    metrics["trace.overhead_ratio"] = {
        "value": own.traced.p50_cal() / own.base.p50_cal(), "source": work.name}
    metrics["trace.coverage"] = {"value": own.table.coverage(), "source": work.name}

    spans_path = Path(args.out_dir) / f"spans-{work.name}-seed{args.seed}.npz"
    own.table.save(spans_path)
    summary = own.untraced.summary()
    summary.update(
        attempted=sum(p.attempted for p in loops),
        failed=sum(p.failed for p in loops),
        first_error=next((p.first_error for p in loops if p.first_error), None),
        layers=metrics,
        module_shares=own.table.module_shares(),
        spans=own.table.summary(),
        spans_file=str(spans_path),
        traced_samples=own.traced.attempted,
    )
    return summary


def peak_rss_mb(work):
    """Peak resident memory of this process, or of its largest child for
    ``cli-panels``."""
    who = resource.RUSAGE_CHILDREN if work.name == "cli-panels" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    work = workloads.build(args.workload, args.seed, env)
    work.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(work, args, env)
        peak = peak_rss_mb(work)
    else:
        loop = closed_loop(work, work.op, seconds=args.seconds)
        peak = peak_rss_mb(work)  # before the summary's temporaries
        result = loop.summary()
    result["peak_rss_mb"] = peak
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "optosteer": optosteer.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
