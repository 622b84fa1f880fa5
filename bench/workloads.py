"""The four benchmark workloads: seeded inputs, the operation a user issues,
and the check that the operation's output is correct.

Each workload draws all of its inputs from one seed when it is built; the
program only ever sees those generated inputs.  Operations call the package
through its module attributes (``scenario.sweep_time`` and so on) at call
time, so that the tracer in ``tracing.py`` sees every call it wraps.

Why these four (see README.md for the full argument):

* ``cli-panels``  -- the CLI as a user runs it, one process per request, so
  interpreter start, imports and CSV/JSON emission are all paid.
* ``sweep-refine`` -- dense in-process sweeps plus birth and window
  refinement: the ``scenario``/``gaussian``/closed-form path with no process
  or import cost.
* ``point-queries`` -- one point at a time through ``parse_config`` and
  ``run``; the only workload where config parsing and ``model`` carry weight.
* ``ode-oracle`` -- the RK4 Lyapunov integrator, which every other workload
  bypasses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"

PANELS = ("2a", "2b", "2c", "2d", "3a", "3b", "3c", "3d", "3-inset")
FORMATS = ("csv", "json")
MEASURES = ("g_ab", "g_ba", "g_delta", "e2")
SAMPLE_FIELDS = ("gamma_t",) + MEASURES
STATIONARY_FIELDS = ("v11", "v33", "v13") + MEASURES
EPSILON = 1e-9  # the library and CLI default positivity tolerance

#: Bound on the RK4-vs-closed-form deviation per trajectory (as in test_01).
ODE_MAX_DEV = 1e-8

#: Laboratory numbers of `optosteer.groblacher_setup`, in the units the
#: [physical] config block uses; point queries perturb them.
LAB_BASE = {
    "cavity_freq_hz": 5.26e14,
    "laser_freq_hz": 2.82e14,
    "length_m": 25e-3,
    "kappa_hz": 215e3,
    "mass_kg": 1.45e-7,
    "mech_freq_hz": 947e3,
    "gamma_hz": 140.0,
}

#: Upper bound for a child CLI process; a hung child is killed and failed.
CHILD_TIMEOUT_S = 120.0

#: A fresh interpreter that imports numpy and says so: process start and
#: imports, which the program cannot change and which slow down with the
#: host as a process of the program does.  ``run.py`` divides set-up time
#: by its time, and ``cli-panels`` calibrates its process-per-op latency
#: with it.
REFERENCE_CMD = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]


def _draw_reduced(rng):
    """Reduced parameters inside the ranges the model is meant for."""
    return {
        "c1": float(rng.uniform(1.0, 50.0)),
        "c2": float(rng.uniform(1.0, 50.0)),
        "nth1": float(rng.uniform(0.0, 2.0)),
        "nth2": float(rng.uniform(0.0, 2.0)),
        "r": float(rng.uniform(0.1, 1.5)),
        "gamma_hz": float(rng.uniform(50.0, 500.0)),
    }


def _reduced_params(values):
    from optosteer import model

    return model.ReducedParams(
        c1=values["c1"], c2=values["c2"], nth1=values["nth1"],
        nth2=values["nth2"], r=values["r"], gamma=ref.TWO_PI * values["gamma_hz"],
    )


class Workload:
    """Common shape: ``inputs`` (a list), ``warm_up()``, ``op(i)``,
    ``rows(i, result)`` and ``check(i, result)``; optionally ``info(i, result)``
    for a per-op number the per-module metrics need.  ``traced_op`` is what
    the traced phase calls."""

    name = ""

    def traced_op(self, i):
        return self.op(i)

    def kind(self, i):
        """Ops of one kind do the same work; timings are summarised per kind."""
        return self.name


class CliPanels(Workload):
    """``python -m optosteer.cli --mode figure --panel P --format F`` per op,
    cycling through a seeded order of the 9 panels x {csv, json}."""

    name = "cli-panels"

    def __init__(self, seed, env):
        rng = np.random.default_rng([seed, 1])
        combos = [(p, f) for p in PANELS for f in FORMATS]
        self.inputs = [combos[k] for k in rng.permutation(len(combos))]
        self.env = env
        self.golden = {p: (GOLDEN_DIR / f"panel_{p}.csv").read_bytes() for p in PANELS}
        self._golden_rows = {p: self._parse_golden(b) for p, b in self.golden.items()}

    @staticmethod
    def _parse_golden(data):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        return rows[0], [[float(x) for x in row] for row in rows[1:]]

    def argv(self, i):
        panel, fmt = self.inputs[i % len(self.inputs)]
        return ["--mode", "figure", "--panel", panel, "--format", fmt]

    def op(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "optosteer.cli", *self.argv(i)],
            capture_output=True, env=self.env, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def reference_process(self):
        """Seconds of one ``REFERENCE_CMD`` process: the calibration of
        ``op``, which is itself a process start plus imports."""
        t0 = perf_counter()
        subprocess.run(REFERENCE_CMD, env=self.env, stdout=subprocess.DEVNULL,
                       check=True, timeout=CHILD_TIMEOUT_S)
        return perf_counter() - t0

    def traced_op(self, i):
        """The same request served in process, so spans can see inside it."""
        from optosteer import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(i))
        return code, buf.getvalue().encode("utf-8")

    def fmt(self, i):
        return self.inputs[i % len(self.inputs)][1]

    kind = fmt

    def warm_up(self):
        self.check(0, self.op(0))

    def panel_rows(self, i):
        return len(self._golden_rows[self.inputs[i % len(self.inputs)][0]][1])

    def rows(self, i, result):
        return self.panel_rows(i)

    def check(self, i, result):
        code, out = result
        if code != 0:
            return False
        panel, fmt = self.inputs[i % len(self.inputs)]
        if fmt == "csv":
            return out == self.golden[panel]
        header, rows = self._golden_rows[panel]
        payload = json.loads(out)
        return len(payload) == len(rows) and all(
            list(obj) == header and [obj[k] for k in header] == row
            for obj, row in zip(payload, rows)
        )


class SweepRefine(Workload):
    """``sweep_time`` on a dense seeded grid, ``detect_birth`` for all four
    measures, then ``steering_windows``; seeded random reduced parameters.

    Grid sizes stay within 5 % of the panels' 1001 points so that the cost
    of an op depends little on the seed.
    """

    name = "sweep-refine"
    POOL = 64

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for _ in range(self.POOL):
            values = _draw_reduced(rng)
            values["grid_stop"] = float(rng.uniform(4.0, 6.0))
            values["grid_points"] = int(rng.integers(951, 1052))
            self.inputs.append(values)
        self._params = [_reduced_params(v) for v in self.inputs]
        self._grids = [
            np.linspace(0.0, v["grid_stop"], v["grid_points"]) for v in self.inputs
        ]

    def op(self, i):
        from optosteer import scenario

        k = i % self.POOL
        sweep = scenario.sweep_time(self._params[k], self._grids[k], EPSILON)
        births = [scenario.detect_birth(sweep, m) for m in MEASURES]
        windows = scenario.steering_windows(sweep)
        return sweep, births, windows

    def warm_up(self):
        from optosteer import scenario

        sweep = scenario.sweep_time(self._params[0], np.linspace(0.0, 1.0, 64), EPSILON)
        for m in MEASURES:
            scenario.detect_birth(sweep, m)
        scenario.steering_windows(sweep)

    def rows(self, i, result):
        return len(result[0].samples)

    def info(self, i, result):
        """Bisected crossings of one op: refined births plus window edges."""
        grid = self._grids[i % self.POOL]
        _, births, windows = result
        return sum(b is not None and b > grid[0] for b in births) + len(windows) - 1

    def check(self, i, result):
        sweep, births, windows = result
        values = self.inputs[i % self.POOL]
        grid = self._grids[i % self.POOL]
        times = sweep.times
        cols = {m: sweep.column(m) for m in MEASURES}
        classes = [s.steering_class.value for s in sweep.samples]
        v11, v33, v13 = ref.trajectory(
            values["c1"], values["c2"], values["nth1"], values["nth2"], values["r"], grid
        )
        expected = ref.measures(v11, v33, v13)
        if not np.array_equal(times, grid):
            return False
        if not all(ref.close(cols[m], e) for m, e in zip(MEASURES, expected)):
            return False
        if not ref.invariants_hold(*(cols[m] for m in MEASURES)):
            return False
        if classes != [
            ref.steering_class(a, b, EPSILON) for a, b in zip(cols["g_ab"], cols["g_ba"])
        ]:
            return False
        return self._births_ok(births, cols, grid) and self._windows_ok(
            windows, classes, grid
        )

    @staticmethod
    def _births_ok(births, cols, grid):
        for m, birth in zip(MEASURES, births):
            above = np.nonzero(cols[m] > EPSILON)[0]
            if len(above) == 0:
                if birth is not None:
                    return False
                continue
            idx = int(above[0])
            lo = grid[idx - 1] if idx > 0 else grid[0]
            if birth is None or not lo <= birth <= grid[idx]:
                return False
        return True

    @staticmethod
    def _windows_ok(windows, classes, grid):
        if not windows or windows[0].start != grid[0] or windows[-1].end != grid[-1]:
            return False
        kinds = [w.kind.value for w in windows]
        if any(a == b for a, b in zip(kinds, kinds[1:])):
            return False
        if any(a.end != b.start for a, b in zip(windows, windows[1:])):
            return False
        classes = np.array(classes)
        for w, kind in zip(windows, kinds):
            inside = (grid > w.start) & (grid < w.end)
            if np.any(classes[inside] != kind):
                return False
        return True


class PointQueries(Workload):
    """``parse_config`` + ``run`` per op over a seeded pool of eval,
    stationary and regime configs, half [reduced] and half [physical]."""

    name = "point-queries"
    POOL = 512

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.inputs = [self._draw(rng) for _ in range(self.POOL)]
        self.expected = [self._expect(q) for q in self.inputs]
        self._verified = {}

    @staticmethod
    def _draw_physical(rng):
        """Perturbed laboratory numbers whose regime check cannot fail."""
        while True:
            common = dict(LAB_BASE)
            common["kappa_hz"] *= float(rng.uniform(0.8, 1.2))
            common["mass_kg"] *= float(rng.uniform(0.8, 1.2))
            arms = [dict(common, power_w=float(rng.uniform(2e-3, 14e-3)),
                         nth=float(rng.uniform(0.0, 2.0))) for _ in range(2)]
            statuses = [
                ref.regime_status(ratio)
                for j, arm in enumerate(arms, 1)
                for _, ratio in ref.regime_ratios(arm, j)
            ]
            if "fail" not in statuses:
                return {"arms": arms, "r": float(rng.uniform(0.1, 1.5))}

    def _draw(self, rng):
        mode = ("eval", "stationary", "regime")[int(rng.integers(3))]
        # regime needs [physical]; eval/stationary lean [reduced] so that the
        # pool is half [reduced] and half [physical] overall.
        physical = mode == "regime" or rng.uniform() < 0.25
        query = {"mode": mode}
        if physical:
            query["physical"] = self._draw_physical(rng)
        else:
            query["reduced"] = _draw_reduced(rng)
        if mode == "eval":
            query["gamma_t"] = float(rng.uniform(0.0, 5.0))
        query["text"] = self._render(query)
        return query

    @staticmethod
    def _render(query):
        lines = []
        if "reduced" in query:
            lines.append("[reduced]")
            lines += [f"{k} = {v!r}" for k, v in query["reduced"].items()]
        else:
            phys = query["physical"]
            lines.append("[physical]")
            for j, arm in enumerate(phys["arms"], 1):
                lines += [
                    f"cavity_freq{j}_hz = {arm['cavity_freq_hz']!r}",
                    f"laser_freq{j}_hz = {arm['laser_freq_hz']!r}",
                    f"length{j}_m = {arm['length_m']!r}",
                    f"kappa{j}_hz = {arm['kappa_hz']!r}",
                    f"power{j}_w = {arm['power_w']!r}",
                    f"mass{j}_kg = {arm['mass_kg']!r}",
                    f"nth{j} = {arm['nth']!r}",
                ]
            arm = phys["arms"][0]
            lines += [
                f"mech_freq_hz = {arm['mech_freq_hz']!r}",
                f"gamma_hz = {arm['gamma_hz']!r}",
                f"r = {phys['r']!r}",
            ]
        lines += ["", "[run]", f"mode = {query['mode']}"]
        if "gamma_t" in query:
            lines.append(f"gamma_t = {query['gamma_t']!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _expect(query):
        """Reference output: (header, rows) with floats, or the regime table."""
        if query["mode"] == "regime":
            arms = query["physical"]["arms"]
            rows = [
                (name, ratio, ref.regime_status(ratio))
                for j, arm in enumerate(arms, 1)
                for name, ratio in ref.regime_ratios(arm, j)
            ]
            order = {"pass": 0, "warn": 1, "fail": 2}
            overall = max((s for _, _, s in rows), key=order.__getitem__)
            return ("check", "ratio", "status"), rows, overall
        if "reduced" in query:
            p = query["reduced"]
            c1, c2, nth1, nth2, r = p["c1"], p["c2"], p["nth1"], p["nth2"], p["r"]
        else:
            a1, a2 = query["physical"]["arms"]
            c1, c2 = ref.cooperativity(a1), ref.cooperativity(a2)
            nth1, nth2, r = a1["nth"], a2["nth"], query["physical"]["r"]
        if query["mode"] == "stationary":
            v = ref.stationary_elements(c1, c2, nth1, nth2, r)
            row = [*v, *ref.measures(*v)]
            return STATIONARY_FIELDS, [[float(x) for x in row]], None
        t = query["gamma_t"]
        row = [t, *ref.measures(*ref.trajectory(c1, c2, nth1, nth2, r, t))]
        return SAMPLE_FIELDS, [[float(x) for x in row]], None

    def op(self, i):
        from optosteer import cli

        out, err = io.StringIO(), io.StringIO()
        code = cli.run(cli.parse_config(self.inputs[i % self.POOL]["text"]), out, err)
        return code, out.getvalue()

    def kind(self, i):
        query = self.inputs[i % self.POOL]
        return query["mode"] + ("/physical" if "physical" in query else "/reduced")

    def warm_up(self):
        for i in range(6):
            self.check(i, self.op(i))

    def rows(self, i, result):
        return 1

    def check(self, i, result):
        code, out = result
        k = i % self.POOL
        if code != 0:
            return False
        if self._verified.get(k) == out:
            return True
        ok = self._check_text(self.expected[k], out)
        if ok:
            self._verified[k] = out
        return ok

    @staticmethod
    def _check_text(expected, out):
        header, rows, overall = expected
        lines = out.split("\n")
        if lines[-1] != "" or tuple(lines[0].split(",")) != tuple(header):
            return False
        body = [line.split(",") for line in lines[1:-1]]
        if overall is not None:  # regime table, then the overall line
            if body[-1] != ["overall", "", overall] or len(body) != len(rows) + 1:
                return False
            return all(
                got[0] == name and got[2] == status and ref.close(float(got[1]), ratio)
                for got, (name, ratio, status) in zip(body, rows)
            )
        if len(body) != 1:
            return False
        got = [float(x) for x in body[0]]
        measures = got[-4:]
        return ref.close(got, rows[0]) and ref.invariants_hold(*measures)


class OdeOracle(Workload):
    """``covariance_ode`` at the default step and tolerance on the 501-point
    grid for a seeded panel, then an elementwise comparison against
    ``covariance_closed_form`` (part of the op, as a user of the oracle
    would run it).

    The grid keeps the oracle check's 501 points and default step but spans
    gamma*t in [0, 0.1], where the measures are born, instead of [0, 5]: a
    full-span op takes seconds, too few per run to time steadily on a
    shared host.  The per-step cost, which the RK4 work changes, is the same.
    """

    name = "ode-oracle"
    GRID = np.linspace(0.0, 0.1, 501)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        self.inputs = [PANELS[k] for k in rng.permutation(len(PANELS))]

    def op(self, i):
        from optosteer import dynamics, scenario

        rp = scenario.PANEL_PARAMS[self.inputs[i % len(self.inputs)]]
        traj = dynamics.covariance_ode(rp, self.GRID)
        dev = max(
            float(np.max(np.abs(state.matrix - dynamics.covariance_closed_form(rp, t).matrix)))
            for t, state in traj
        )
        return len(traj), dev

    def warm_up(self):
        from optosteer import dynamics, scenario

        rp = scenario.PANEL_PARAMS[self.inputs[0]]
        dynamics.covariance_ode(rp, self.GRID[:3])
        dynamics.covariance_closed_form(rp, self.GRID[1])

    def rows(self, i, result):
        return result[0]

    def info(self, i, result):
        """The op's deviation from the closed form."""
        return result[1]

    def check(self, i, result):
        n, dev = result
        return n == len(self.GRID) and math.isfinite(dev) and dev < ODE_MAX_DEV


def build(name, seed, env):
    if name == "cli-panels":
        return CliPanels(seed, env)
    return {"sweep-refine": SweepRefine, "point-queries": PointQueries,
            "ode-oracle": OdeOracle}[name](seed)


NAMES = ("cli-panels", "sweep-refine", "point-queries", "ode-oracle")
