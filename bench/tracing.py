"""Spans at the package's module boundaries, recorded from outside the package.

``Tracer.installed()`` replaces each public function listed in ``TRACED``, in
every ``optosteer`` module namespace that binds it, with a wrapper that
records one span: name, start, end, parent span and op id.  Calls the
package makes between its own modules go through those namespaces, so they
are recorded too; private helpers are not.  Spans stay in flat in-memory
arrays until the run ends.  Nothing inside ``src/`` reads a timer.

``layer_metrics`` turns a span table into the per-module metrics of the
workload that owns them (see README.md for which workload owns which).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main", "parse_config", "run"),
    "scenario": ("sweep_time", "evaluate_measures", "detect_birth",
                 "steering_windows", "figure_panels"),
    "gaussian": ("steering_a_to_b", "steering_b_to_a", "renyi2_entanglement",
                 "classify_steering"),
    "dynamics": ("covariance_closed_form", "covariance_ode", "stationary_covariance"),
    "model": ("reduce_params", "regime_check"),
}

#: Name of the benchmark's own root span around one op.
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_inputs = array("i")
        self._stack = []
        self.op_id = -1

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn):
        nid = self._name_id(name)
        start, end, stack, open_span = self.start, self.end, self._stack, self._open

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def op_span(self, i):
        """The root span of the next op, on input ``i``, recorded by the
        benchmark itself.  Ops are numbered from 0 in the order they run."""
        self.op_id = len(self.op_inputs)
        self.op_inputs.append(i)
        idx = self._open(self._name_id(OP))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "optosteer" or n.startswith("optosteer.")]
        patches = []
        try:
            for mod_name, funcs in TRACED.items():
                home = importlib.import_module(f"optosteer.{mod_name}")
                for fname in funcs:
                    orig = getattr(home, fname)
                    wrapper = self.wrap(f"{mod_name}.{fname}", orig)
                    for mod in modules:
                        if mod.__dict__.get(fname) is orig:
                            patches.append((mod, fname, orig))
                            setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, orig in patches:
                setattr(mod, fname, orig)

    def table(self):
        return SpanTable(self.names, self.name, self.parent, self.op,
                         self.start, self.end, self.op_inputs)


class SpanTable:
    """Column view of recorded spans, with durations and self times."""

    def __init__(self, names, name, parent, op, start, end, op_inputs):
        self.names = list(names)
        self.op_inputs = np.array(op_inputs, dtype=np.int64)
        self.name = np.array(name, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.op = np.array(op, dtype=np.int64)
        self.start = np.array(start, dtype=float)
        self.end = np.array(end, dtype=float)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_time = self.dur - self.child_time

    def ids(self, *names):
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.nonzero(np.isin(self.name, wanted))[0]

    def count_under(self, child_names, parent_ids):
        """Per span in ``parent_ids``: how many direct children it has of the
        given names."""
        kids = self.ids(*child_names)
        counts = np.bincount(self.parent[kids][self.parent[kids] >= 0],
                             minlength=len(self.dur))
        return counts[parent_ids]

    def coverage(self):
        """Median share of an op's time that module spans account for."""
        roots = self.ids(OP)
        return float(np.median(self.child_time[roots] / self.dur[roots]))

    def module_shares(self):
        """Self time of each module's spans as a share of all op time."""
        total = float(np.sum(self.dur[self.ids(OP)]))
        shares = {}
        for mod, funcs in TRACED.items():
            ids = self.ids(*(f"{mod}.{f}" for f in funcs))
            shares[mod] = float(np.sum(self.self_time[ids])) / total
        shares["bench"] = float(np.sum(self.self_time[self.ids(OP)])) / total
        return shares

    def summary(self):
        out = {}
        for nid, name in enumerate(self.names):
            ids = np.nonzero(self.name == nid)[0]
            if len(ids) == 0:
                continue
            out[name] = {
                "count": int(len(ids)),
                "total_s": float(np.sum(self.dur[ids])),
                "self_s": float(np.sum(self.self_time[ids])),
                "p50_us": float(np.median(self.dur[ids]) * 1e6),
            }
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, parent=self.parent,
            op=self.op, start=self.start, end=self.end, op_inputs=self.op_inputs,
        )


def _median(values, scale=1.0):
    values = np.asarray(values, dtype=float)
    return float(np.median(values) * scale) if len(values) else None


def _cli_metrics(t, loop, work, extra):
    runs = t.ids("cli.run")
    panels = t.ids("scenario.figure_panels")
    emit = {"csv": [], "json": []}
    run_dur = dict(zip(runs.tolist(), t.dur[runs]))
    for f in panels:
        r = int(t.parent[f])
        i = int(t.op_inputs[t.op[f]])
        if r in run_dur:
            emit[work.fmt(i)].append((run_dur[r] - t.dur[f]) / work.panel_rows(i))
    return {
        "cli.process_overhead_ms": (extra["subprocess_s"] - extra["inprocess_s"]) * 1e3,
        "cli.emit_csv_us_per_row": _median(emit["csv"], 1e6),
        "cli.emit_json_us_per_row": _median(emit["json"], 1e6),
    }


def _sweep_metrics(t, loop, work, extra):
    sweeps = t.ids("scenario.sweep_time")
    evals = t.ids("scenario.evaluate_measures")
    points = t.count_under(["scenario.evaluate_measures"], sweeps)
    refiners = t.ids("scenario.detect_birth", "scenario.steering_windows")
    refine_evals = int(np.sum(t.count_under(["dynamics.covariance_closed_form"], refiners)))
    classify = t.ids("gaussian.classify_steering")
    point_parents = np.concatenate([evals, classify[np.isin(t.parent[classify], evals)]])
    steering = t.ids("gaussian.steering_a_to_b", "gaussian.steering_b_to_a")
    per_point = int(np.sum(np.isin(t.parent[steering], point_parents)))
    n_ops = len(t.ids("bench.op"))
    return {
        "scenario.sweep_us_per_point": _median(t.dur[sweeps] / points, 1e6),
        "scenario.sweep_self_us_per_point": _median(t.self_time[sweeps] / points, 1e6),
        "scenario.detect_birth_ms": _median(t.dur[t.ids("scenario.detect_birth")], 1e3),
        "scenario.steering_windows_ms": _median(
            t.dur[t.ids("scenario.steering_windows")], 1e3),
        "scenario.refine_evals_per_crossing": refine_evals / max(1.0, loop.info_sum),
        "gaussian.steering_us": _median(t.dur[steering], 1e6),
        "gaussian.renyi2_us": _median(t.dur[t.ids("gaussian.renyi2_entanglement")], 1e6),
        "gaussian.classify_us": _median(t.dur[classify], 1e6),
        "gaussian.steering_calls_per_point": per_point / len(evals),
        "dynamics.closed_form_us": _median(
            t.dur[t.ids("dynamics.covariance_closed_form")], 1e6),
        "dynamics.closed_form_calls_per_op":
            len(t.ids("dynamics.covariance_closed_form")) / n_ops,
    }


def _point_metrics(t, loop, work, extra):
    return {
        "cli.parse_config_us": _median(t.dur[t.ids("cli.parse_config")], 1e6),
        "cli.run_self_us": _median(t.self_time[t.ids("cli.run")], 1e6),
        "scenario.evaluate_measures_us": _median(
            t.dur[t.ids("scenario.evaluate_measures")], 1e6),
        "model.reduce_params_us": _median(t.dur[t.ids("model.reduce_params")], 1e6),
        "model.regime_check_us": _median(t.dur[t.ids("model.regime_check")], 1e6),
    }


def _ode_metrics(t, loop, work, extra):
    odes = t.ids("dynamics.covariance_ode")
    root_dur = dict(zip(t.ids(OP).tolist(), t.dur[t.ids(OP)]))
    compare = [root_dur[int(t.parent[k])] - t.dur[k] for k in odes]
    grid_points = len(work.GRID)
    return {
        "dynamics.ode_s_per_traj": _median(t.dur[odes]),
        "dynamics.ode_us_per_grid_point": _median(t.dur[odes] / grid_points, 1e6),
        "dynamics.oracle_compare_ms": _median(compare, 1e3),
        "dynamics.ode_max_dev": loop.info_max,
    }


#: Per-module metrics, by the workload whose ops measure them.
OWNED = {
    "cli-panels": _cli_metrics,
    "sweep-refine": _sweep_metrics,
    "point-queries": _point_metrics,
    "ode-oracle": _ode_metrics,
}


def layer_metrics(work, table, loop, extra):
    """The metrics ``work`` owns, from its traced ``loop`` and spans."""
    return OWNED[work.name](table, loop, work, extra)
