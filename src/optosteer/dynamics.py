"""Time evolution of the two-mode mechanical covariance matrix.

Two independent routes to V(t) are provided and cross-checked against each
other: the closed-form single-exponential solution of the decoupled moment
equations, and a fixed-step classical RK4 integrator for the Lyapunov
equation dV/dt = S V + V S^T + D.  Both use the initial condition V(0) = I
(every quadrature variance 1); time is handled dimensionlessly as gamma*t,
the drift and diffusion matrices scale linearly with gamma so the trajectory
depends on gamma only through that product.

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

import numpy as np

from .errors import IntegrationError, InvalidInput
from .gaussian import FLOAT_MATH, StsColumns, TwoModeCovariance
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
    """Covariance matrices sampled on a strictly increasing gamma*t grid."""

    times: np.ndarray
    states: tuple[TwoModeCovariance, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise InvalidInput("times and states must have matching lengths")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise InvalidInput("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self):
        return len(self.states)

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


def _rk4_run(rate, diffusion, grid, v0, step):
    """Integrate dV/dtau = rate * V + diffusion (elementwise product).

    For a diagonal drift matrix S this is algebraically identical to
    S V + V S^T + D because (S V + V S^T)_ij = (S_ii + S_jj) V_ij; the two
    forms round differently.
    Each grid interval is covered by equal substeps no longer than `step`.
    """
    out = []
    v = v0.copy()
    t = 0.0
    for target in grid:
        span = target - t
        if span > 0.0:
            n = max(1, math.ceil(span / step))
            h = span / n
            for _ in range(n):
                k1 = rate * v + diffusion
                k2 = rate * (v + 0.5 * h * k1) + diffusion
                k3 = rate * (v + 0.5 * h * k2) + diffusion
                k4 = rate * (v + h * k3) + diffusion
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = target
        out.append(v.copy())
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
    initial condition defaults to the identity matrix.
    """
    grid = time_grid(grid)
    if not (0.0 < step <= 1.0):
        raise InvalidInput("step must be in (0, 1]")

    dd = build_drift_diffusion(rp)
    s_diag = np.diag(dd.drift) / rp.gamma
    rate = s_diag[:, None] + s_diag[None, :]
    diffusion = dd.diffusion / rp.gamma
    v0 = np.eye(4) if initial is None else np.asarray(initial, dtype=float).copy()
    if v0.shape != (4, 4):
        raise InvalidInput("initial condition must be 4x4")

    coarse = _rk4_run(rate, diffusion, grid, v0, step)
    for _ in range(MAX_HALVINGS):
        step /= 2.0
        fine = _rk4_run(rate, diffusion, grid, v0, step)
        change = max(np.max(np.abs(a - b)) for a, b in zip(coarse, fine))
        if change <= step_tol:
            states = tuple(TwoModeCovariance(m) for m in fine)
            return CovarianceTrajectory(grid, states)
        coarse = fine
    raise IntegrationError(
        f"step halving did not converge below {step_tol:g} "
        f"(last change {change:.3e} at step {step:g})"
    )
