"""Time sweeps of the correlation measures, sudden-birth detection, steering
windows, and the built-in demonstration panel parameter sets.

A sweep evaluates the closed form and every measure once over its whole
grid, as numpy columns.  A single time (``evaluate_measures`` on a scalar,
and each bisection step) runs the same formulas on floats with the ``math``
module.  The single-time path is the reference: it gives the values the
package has always given, bit for bit.  A sweep entry agrees with it to
1e-10 relative (numpy's expm1 and log differ from the C library's by an ulp
on a small share of inputs), and the panel datasets print identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import _closed_form, covariance_closed_form, time_grid
from .errors import InvalidInput
from .gaussian import (
    SteeringClass,
    StsColumns,
    classify_steering,
    _contents_equal,
    renyi2_entanglement,
    steering_a_to_b,
    steering_b_to_a,
)
from .model import ReducedParams

#: gamma*t interval and resolution used by the panel datasets by default.
DEFAULT_GRID_STOP = 5.0
DEFAULT_GRID_POINTS = 1001

#: Refinement width (in gamma*t) for bisected birth times and window edges.
REFINE_TOL = 1e-8

MEASURE_NAMES = ("g_ab", "g_ba", "g_delta", "e2")


@dataclass(frozen=True)
class MeasureSample:
    """Correlation measures of the dynamical state at one scaled time.

    From an array of times every field is a read-only column, one entry per
    time, and ``steering_class`` is an object array of SteeringClass.
    """

    gamma_t: float
    g_ab: float
    g_ba: float
    e2: float
    steering_class: SteeringClass

    __eq__ = _contents_equal

    @property
    def g_delta(self) -> float:
        """Steering asymmetry, recomputed so it can never drift out of sync."""
        return abs(self.g_ab - self.g_ba)


@dataclass(frozen=True)
class SteeringWindow:
    """Maximal interval of constant steering classification."""

    kind: SteeringClass
    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise InvalidInput("window start must precede its end")


@dataclass(frozen=True)
class TimeSweep:
    """A measure series together with the parameters that generated it.

    ``measures`` holds the series as columns (a MeasureSample of arrays).
    """

    params: ReducedParams
    epsilon: float
    measures: MeasureSample

    __eq__ = _contents_equal

    @property
    def times(self) -> np.ndarray:
        return self.measures.gamma_t.copy()

    def column(self, name: str) -> np.ndarray:
        if name not in MEASURE_NAMES:
            raise InvalidInput(f"unknown measure {name!r}")
        return np.array(getattr(self.measures, name))

    @cached_property
    def samples(self) -> tuple[MeasureSample, ...]:
        """The series as one MeasureSample per grid point, built on first use."""
        m = self.measures
        return tuple(map(MeasureSample, m.gamma_t.tolist(), m.g_ab.tolist(),
                         m.g_ba.tolist(), m.e2.tolist(), m.steering_class.tolist()))


def default_grid() -> np.ndarray:
    return np.linspace(0.0, DEFAULT_GRID_STOP, DEFAULT_GRID_POINTS)


def evaluate_measures(rp: ReducedParams, gamma_t, epsilon=1e-9) -> MeasureSample:
    """All four measures plus the steering class at a single scaled time, or
    at every entry of a 1-d array of them, evaluated at once (then every
    field of the result is a column)."""
    scalar = isinstance(gamma_t, float) or np.ndim(gamma_t) == 0
    state = (StsColumns(*_closed_form(rp, gamma_t)) if scalar
             else covariance_closed_form(rp, gamma_t))
    values = (steering_a_to_b(state), steering_b_to_a(state),
              renyi2_entanglement(state), classify_steering(state, epsilon))
    if scalar:
        return MeasureSample(float(gamma_t), *values)
    times = np.array(gamma_t, dtype=float)
    for column in (times, *values):
        column.setflags(write=False)
    return MeasureSample(times, *values)


def sweep_time(rp: ReducedParams, grid, epsilon=1e-9) -> TimeSweep:
    """The measures at every point of a grid, evaluated at once as columns.

    The grid must be non-empty, 1-d, finite, nonnegative and strictly
    increasing, or InvalidInput is raised.
    """
    return TimeSweep(rp, epsilon, evaluate_measures(rp, time_grid(grid), epsilon))


def _bisect_crossing(rp, which, epsilon, t_lo, t_hi, lo_above, tol):
    """Locate where a measure crosses epsilon inside (t_lo, t_hi].

    ``lo_above`` tells whether the measure exceeds epsilon at t_lo; at t_hi
    it lies on the other side.  Callers read both from the sweep.
    """
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if (getattr(evaluate_measures(rp, mid, epsilon), which) > epsilon) == lo_above:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def detect_birth(sweep: TimeSweep, which: str, refine_tol=REFINE_TOL):
    """First scaled time at which a measure exceeds the sweep's epsilon.

    Grid detection refined by bisection on the closed form; None when the
    measure never comes alive on the grid.
    """
    above = np.flatnonzero(sweep.column(which) > sweep.epsilon)
    if len(above) == 0:
        return None
    idx = int(above[0])
    times = sweep.measures.gamma_t
    if idx == 0:
        return float(times[0])
    return _bisect_crossing(
        sweep.params, which, sweep.epsilon,
        float(times[idx - 1]), float(times[idx]), False, refine_tol,
    )


def _boundary_time(sweep: TimeSweep, i: int, refine_tol) -> float:
    """Refine the class-change boundary between grid samples i and i+1.

    At a change at least one steering measure flips across epsilon; the
    boundary is the earliest such crossing.
    """
    m, eps = sweep.measures, sweep.epsilon
    t_lo, t_hi = float(m.gamma_t[i]), float(m.gamma_t[i + 1])
    crossings = []
    for which, values in (("g_ab", m.g_ab), ("g_ba", m.g_ba)):
        lo_above = bool(values[i] > eps)
        if lo_above != bool(values[i + 1] > eps):
            crossings.append(_bisect_crossing(
                sweep.params, which, eps, t_lo, t_hi, lo_above, refine_tol))
    return min(crossings)


def steering_windows(sweep: TimeSweep, refine_tol=REFINE_TOL):
    """Maximal runs of constant steering class covering the grid span.

    Interior boundaries are refined by bisection on the classifying measures;
    the first window starts at the grid start and the last one is truncated
    by the grid end.
    """
    times, classes = sweep.measures.gamma_t, sweep.measures.steering_class
    if len(times) < 2:
        raise InvalidInput("need at least two samples to build windows")
    windows = []
    run_start = float(times[0])
    run_kind = classes[0]
    for i in np.flatnonzero(classes[1:] != classes[:-1]).tolist():
        edge = _boundary_time(sweep, i, refine_tol)
        windows.append(SteeringWindow(run_kind, run_start, edge))
        run_start = edge
        run_kind = classes[i + 1]
    windows.append(SteeringWindow(run_kind, run_start, float(times[-1])))
    return tuple(windows)


def _panel_params(c1, c2, nth1, nth2, r):
    return ReducedParams(c1=c1, c2=c2, nth1=nth1, nth2=nth2, r=r,
                         gamma=2.0 * math.pi * 140.0)


#: Built-in demonstration panels at cooperativities (15, 35): the "2" series
#: varies the thermal occupations at squeezing r = 1, the "3" series varies
#: the squeezing at occupations (1, 1).
PANEL_PARAMS = {
    "2a": _panel_params(15.0, 35.0, 0.5, 1.0, 1.0),
    "2b": _panel_params(15.0, 35.0, 1.0, 0.5, 1.0),
    "2c": _panel_params(15.0, 35.0, 1.0, 1.2, 1.0),
    "2d": _panel_params(15.0, 35.0, 1.0, 1.5, 1.0),
    "3a": _panel_params(15.0, 35.0, 1.0, 1.0, 0.1),
    "3b": _panel_params(15.0, 35.0, 1.0, 1.0, 0.5),
    "3c": _panel_params(15.0, 35.0, 1.0, 1.0, 1.0),
    "3d": _panel_params(15.0, 35.0, 1.0, 1.0, 1.1),
    "3-inset": _panel_params(15.0, 35.0, 1.0, 1.0, 1.7),
}


def figure_panels(panel: str, grid=None, epsilon=1e-9) -> TimeSweep:
    """Measure dataset of one built-in panel on the default (or given) grid."""
    try:
        rp = PANEL_PARAMS[panel]
    except KeyError:
        raise InvalidInput(
            f"unknown panel {panel!r}; choose from {', '.join(PANEL_PARAMS)}"
        ) from None
    if grid is None:
        grid = default_grid()
    return sweep_time(rp, grid, epsilon)
