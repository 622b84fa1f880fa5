"""Time evolution of the two-mode mechanical covariance matrix.

Two independent routes to V(t) are provided and cross-checked against each
other: the closed-form single-exponential solution of the decoupled moment
equations, and a fixed-step classical RK4 integrator for the Lyapunov
equation dV/dt = S V + V S^T + D, whose substeps over each grid interval
are composed into one elementwise affine map.  Both use the initial
condition V(0) = I (every quadrature variance 1); time is handled
dimensionlessly as gamma*t, the drift and diffusion matrices scale linearly
with gamma so the trajectory depends on gamma only through that product.

With Gamma_a_j = C_j gamma and Gamma_j = Gamma_a_j + gamma:

    S = diag(-Gamma_1/2, -Gamma_1/2, -Gamma_2/2, -Gamma_2/2)
    D_11 = D_22 = Gamma_a1 (N + 1/2) + gamma (nth1 + 1/2)
    D_33 = D_44 = Gamma_a2 (N + 1/2) + gamma (nth2 + 1/2)
    D_13 = -D_24 = M sqrt(Gamma_a1 Gamma_a2)

and the trajectory elements are

    v11(t) = 1 + (v11_inf - 1)(1 - e^{-gamma (C1+1) t}),   v22 = v11
    v33(t) = 1 + (v33_inf - 1)(1 - e^{-gamma (C2+1) t}),   v44 = v33
    v13(t) = v13_inf (1 - e^{-gamma (C1+C2+2) t / 2}),     v24 = -v13

with stationary values v11_inf = ((2N+1)C1 + 2 nth1 + 1)/(2(C1+1)),
v33_inf likewise with (C2, nth2), and
v13_inf = 2 M sqrt(C1 C2)/(C1 + C2 + 2).  The closed form evaluates a whole
array of times at once as the three columns (v11, v33, v13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegrationError, InvalidInput
from .gaussian import FLOAT_MATH, StsColumns, TwoModeCovariance, _contents_equal
from .model import ReducedParams

# Fixed-step size (in gamma*t) of the RK4 oracle and the elementwise change
# allowed between a run at h and a run at h/2 before the result is trusted.
DEFAULT_STEP = 1e-4
STEP_CHECK_TOL = 1e-10
MAX_HALVINGS = 8


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift matrix S (diagonal, strictly negative) and diffusion matrix D."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        if s.shape != (4, 4) or d.shape != (4, 4):
            raise InvalidInput("drift and diffusion must be 4x4")
        object.__setattr__(self, "drift", s)
        object.__setattr__(self, "diffusion", d)


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Covariance matrices sampled on a strictly increasing gamma*t grid.

    ``matrices`` holds them as one read-only (n, 4, 4) array; ``states``
    builds one TwoModeCovariance per grid point on first use.  An RK4 run
    also records how it was accepted: ``halvings`` (step halvings taken),
    ``step`` (the accepted step) and ``last_change`` (the largest elementwise
    change of that last halving).
    """

    times: np.ndarray
    matrices: np.ndarray
    halvings: int
    step: float
    last_change: float

    __eq__ = _contents_equal

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        m = np.array(self.matrices, dtype=float)
        if t.ndim != 1 or m.shape != (len(t), 4, 4):
            raise InvalidInput("times and (n, 4, 4) matrices must have matching lengths")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise InvalidInput("times must be strictly increasing")
        if not np.isfinite(m).all():
            raise InvalidInput("covariance matrices have non-finite entries")
        t.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "matrices", m)

    @cached_property
    def states(self) -> tuple[TwoModeCovariance, ...]:
        """The trajectory as one TwoModeCovariance per grid point."""
        return tuple(map(TwoModeCovariance, self.matrices))

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.states))


def build_drift_diffusion(rp: ReducedParams) -> DriftDiffusion:
    """Assemble S and D (rad/s units) from the reduced parameters."""
    ga1, ga2 = rp.gamma_a1, rp.gamma_a2
    drift = np.diag([-rp.gamma_tot1 / 2.0] * 2 + [-rp.gamma_tot2 / 2.0] * 2)
    d11 = ga1 * (rp.N + 0.5) + rp.gamma * (rp.nth1 + 0.5)
    d33 = ga2 * (rp.N + 0.5) + rp.gamma * (rp.nth2 + 0.5)
    d13 = rp.M * math.sqrt(ga1 * ga2)
    diffusion = np.zeros((4, 4))
    diffusion[0, 0] = diffusion[1, 1] = d11
    diffusion[2, 2] = diffusion[3, 3] = d33
    diffusion[0, 2] = diffusion[2, 0] = d13
    diffusion[1, 3] = diffusion[3, 1] = -d13
    return DriftDiffusion(drift, diffusion)


def _stationary_elements(rp: ReducedParams):
    u = 2.0 * rp.N + 1.0
    v11 = (u * rp.c1 + 2.0 * rp.nth1 + 1.0) / (2.0 * (rp.c1 + 1.0))
    v33 = (u * rp.c2 + 2.0 * rp.nth2 + 1.0) / (2.0 * (rp.c2 + 1.0))
    v13 = 2.0 * rp.M * math.sqrt(rp.c1 * rp.c2) / (rp.c1 + rp.c2 + 2.0)
    return v11, v33, v13


def time_grid(grid) -> np.ndarray:
    """A gamma*t grid as a new float array, after vectorised checks.

    The grid must be a non-empty 1-d sequence of finite, nonnegative and
    strictly increasing times; anything else raises InvalidInput.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidInput("grid must be a non-empty 1-d sequence")
    if not (np.isfinite(grid).all() and grid[0] >= 0.0):
        raise InvalidInput("grid times must be finite and >= 0")
    if len(grid) > 1 and not (np.diff(grid) > 0.0).all():
        raise InvalidInput("grid must be strictly increasing")
    return grid


def covariance_closed_form(rp: ReducedParams, gamma_t):
    """Exact covariance matrix at dimensionless time gamma*t.

    A scalar time gives a TwoModeCovariance; an array of times gives
    StsColumns of its shape, evaluated at once with numpy.  Written through
    expm1 so V(0) = I holds exactly and small times lose no precision;
    algebraically identical to stationary + transient exponential.
    """
    if isinstance(gamma_t, float) or np.ndim(gamma_t) == 0:  # float: skip np.ndim's cost
        t, xp = float(gamma_t), FLOAT_MATH
        valid = 0.0 <= t < math.inf
    else:
        t, xp = np.asarray(gamma_t, dtype=float), np
        valid = ((t >= 0.0) & (t < math.inf)).all()
    if not valid:
        raise InvalidInput("gamma_t must be finite and >= 0")
    v11_inf, v33_inf, v13_inf = _stationary_elements(rp)
    e1 = xp.expm1(-(rp.c1 + 1.0) * t)
    e2 = xp.expm1(-(rp.c2 + 1.0) * t)
    ec = xp.expm1(-0.5 * (rp.c1 + rp.c2 + 2.0) * t)
    v11 = 1.0 - (v11_inf - 1.0) * e1
    v33 = 1.0 - (v33_inf - 1.0) * e2
    v13 = -v13_inf * ec
    if xp is np:
        return StsColumns(v11, v33, v13)
    return TwoModeCovariance.from_standard_form(v11, v33, v13)


def stationary_covariance(rp: ReducedParams) -> TwoModeCovariance:
    """Algebraic infinite-time limit (no large-time exponential evaluation)."""
    v11, v33, v13 = _stationary_elements(rp)
    return TwoModeCovariance.from_standard_form(v11, v33, v13)


def _rk4_map(rate, diffusion, h, n):
    """n classical RK4 substeps of length h on dV/dtau = rate * V + diffusion,
    as one elementwise affine map V -> A * V + B.

    For this linear equation one substep is exactly V -> a * V + b with
    z = h * rate, a = 1 + z + z^2/2 + z^3/6 + z^4/24 (RK4's stability
    polynomial) and b = h (1 + z/2 + z^2/6 + z^3/24) * diffusion.  The n-fold
    composition is taken by binary powering, (a, b) -> (a a, a b + b), over
    the bits of n: O(log n) elementwise products.
    """
    z = h * rate
    p = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    a, b = 1.0 + z * p, h * p * diffusion
    big_a, big_b = np.ones_like(a), np.zeros_like(b)
    while True:
        if n & 1:
            big_a, big_b = a * big_a, a * big_b + b
        n >>= 1
        if not n:
            return big_a, big_b
        a, b = a * a, a * b + b


def _rk4_run(rate, diffusion, grid, v0, step):
    """Integrate dV/dtau = rate * V + diffusion (elementwise product) onto
    the grid, starting from v0 at tau = 0; an (n, 4, 4) array.

    For a diagonal drift matrix S this is algebraically identical to
    S V + V S^T + D because (S V + V S^T)_ij = (S_ii + S_jj) V_ij; the two
    forms round differently.
    Each grid interval is covered by equal substeps no longer than `step`,
    applied as one composed map (see _rk4_map), built once per interval
    length.
    """
    out = np.empty((len(grid), 4, 4))
    maps = {}
    v = v0
    t = 0.0
    for i, target in enumerate(map(float, grid)):
        span = target - t
        if span > 0.0:
            if span not in maps:
                n = max(1, math.ceil(span / step))
                maps[span] = _rk4_map(rate, diffusion, span / n, n)
            a, b = maps[span]
            v = a * v + b
            t = target
        out[i] = v
    return out


def covariance_ode(
    rp: ReducedParams,
    grid,
    step=DEFAULT_STEP,
    step_tol=STEP_CHECK_TOL,
    initial=None,
) -> CovarianceTrajectory:
    """Numerically integrate the Lyapunov equation onto a gamma*t grid.

    Fixed-step classical RK4 with an automated halving check: the step is
    halved until a further halving changes no element by more than step_tol;
    failing to converge within a few halvings raises IntegrationError.  The
    initial condition defaults to the identity matrix; a non-finite or
    non-4x4 initial condition, a step outside (0, 1] or a step_tol that is
    negative or not finite raises InvalidInput before any integration.
    """
    grid = time_grid(grid)
    if not (0.0 < step <= 1.0):
        raise InvalidInput("step must be in (0, 1]")
    if not (0.0 <= step_tol < math.inf):
        raise InvalidInput("step_tol must be finite and >= 0")
    v0 = np.eye(4) if initial is None else TwoModeCovariance(initial).matrix

    dd = build_drift_diffusion(rp)
    s_diag = np.diag(dd.drift) / rp.gamma
    rate = s_diag[:, None] + s_diag[None, :]
    diffusion = dd.diffusion / rp.gamma

    # A step beyond RK4's stability limit overflows; that run holds inf or
    # nan, so its change is not <= step_tol and it counts as not converged.
    with np.errstate(all="ignore"):
        coarse = _rk4_run(rate, diffusion, grid, v0, step)
        for halvings in range(1, MAX_HALVINGS + 1):
            step /= 2.0
            fine = _rk4_run(rate, diffusion, grid, v0, step)
            change = float(np.max(np.abs(coarse - fine)))
            if change <= step_tol:
                return CovarianceTrajectory(grid, fine, halvings, step, change)
            coarse = fine
    raise IntegrationError(
        f"step halving did not converge below {step_tol:g} "
        f"(last change {change:.3e} at step {step:g})"
    )
