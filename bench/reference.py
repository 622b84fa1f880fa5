"""Independent, vectorised reference for the benchmark's correctness gate.

Everything here is written from the formulas stated in the package
docstrings (the `dynamics` module docstring for V(t), the `gaussian` module
and `renyi2_entanglement` docstrings for the measures, the `model`
docstrings for the laboratory reduction and the regime ratios).  Nothing is
imported from `optosteer`, so a defect in the package cannot hide itself by
also changing the reference.

Standard-form identities used for the steering measures:
det V1 = v11^2, det V2 = v33^2 and det V = g^2 with g = v11 v33 - v13^2, so
G(A->B) = max(0, ln(v11 / 2g)) and G(B->A) = max(0, ln(v33 / 2g)).
"""

from __future__ import annotations

import math

import numpy as np

#: Agreement required between a program value and its reference value:
#: |program - reference| <= ATOL + RTOL * |reference|.  The program's 12
#: significant digit text output and the different operation order of the
#: vectorised formulas both stay far inside this.
ATOL = 1e-9
RTOL = 1e-9

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

#: Ratio thresholds of `regime_check` at its default arguments.
REGIME_THRESHOLD = 5.0
REGIME_WARN_FLOOR = 2.0


def stationary_elements(c1, c2, nth1, nth2, r):
    n = np.sinh(r) ** 2
    m = np.sinh(r) * np.cosh(r)
    u = 2.0 * n + 1.0
    v11 = (u * c1 + 2.0 * nth1 + 1.0) / (2.0 * (c1 + 1.0))
    v33 = (u * c2 + 2.0 * nth2 + 1.0) / (2.0 * (c2 + 1.0))
    v13 = 2.0 * m * np.sqrt(c1 * c2) / (c1 + c2 + 2.0)
    return v11, v33, v13


def trajectory(c1, c2, nth1, nth2, r, gamma_t):
    """(v11, v33, v13) of the closed-form solution on an array of gamma*t."""
    t = np.asarray(gamma_t, dtype=float)
    v11_inf, v33_inf, v13_inf = stationary_elements(c1, c2, nth1, nth2, r)
    v11 = 1.0 - (v11_inf - 1.0) * np.expm1(-(c1 + 1.0) * t)
    v33 = 1.0 - (v33_inf - 1.0) * np.expm1(-(c2 + 1.0) * t)
    v13 = -v13_inf * np.expm1(-0.5 * (c1 + c2 + 2.0) * t)
    return v11, v33, v13


def measures(v11, v33, v13):
    """g_ab, g_ba, g_delta, e2 of standard-form squeezed thermal states."""
    v11, v33, v13 = (np.asarray(x, dtype=float) for x in (v11, v33, v13))
    g = v11 * v33 - v13 * v13
    g_ab = np.maximum(0.0, np.log(v11 / (2.0 * g)))
    g_ba = np.maximum(0.0, np.log(v33 / (2.0 * g)))
    s = 0.5 * (v11 + v33)
    d = 0.5 * (v11 - v33)
    entangled = 4.0 * g < 4.0 * s - 1.0
    rad = np.maximum((4.0 * g - 1.0) ** 2 - 16.0 * d * d, 0.0) * np.maximum(
        s * s - d * d - g, 0.0
    )
    ratio = ((4.0 * g + 1.0) * s - np.sqrt(rad)) / (4.0 * (d * d + g))
    with np.errstate(divide="ignore", invalid="ignore"):
        e2 = np.where(entangled, np.maximum(0.0, np.log(ratio)), 0.0)
    return g_ab, g_ba, np.abs(g_ab - g_ba), e2


def steering_class(g_ab, g_ba, epsilon):
    """Class names as `SteeringClass.value` spells them."""
    if g_ab > epsilon and g_ba > epsilon:
        return "two_way"
    if g_ab > epsilon:
        return "one_way_a_to_b"
    if g_ba > epsilon:
        return "one_way_b_to_a"
    return "no_way"


def close(program, reference) -> bool:
    program = np.asarray(program, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return program.shape == reference.shape and bool(
        np.all(np.abs(program - reference) <= ATOL + RTOL * np.abs(reference))
    )


def invariants_hold(g_ab, g_ba, g_delta, e2) -> bool:
    """0 <= g_delta < ln 2, e2 >= 0, both steering measures >= 0."""
    g_ab, g_ba, g_delta, e2 = (
        np.asarray(x, dtype=float) for x in (g_ab, g_ba, g_delta, e2)
    )
    return bool(
        np.all(g_ab >= 0.0)
        and np.all(g_ba >= 0.0)
        and np.all((g_delta >= 0.0) & (g_delta < LN2))
        and np.all(e2 >= 0.0)
    )


def enhanced_coupling(arm):
    """G = (omega_c/L) sqrt(2 kappa P / (m omega_m omega_l ((kappa/2)^2 + omega_m^2)))."""
    wc, wl = TWO_PI * arm["cavity_freq_hz"], TWO_PI * arm["laser_freq_hz"]
    kappa, wm = TWO_PI * arm["kappa_hz"], TWO_PI * arm["mech_freq_hz"]
    lorentz = (kappa / 2.0) ** 2 + wm**2
    return (wc / arm["length_m"]) * math.sqrt(
        2.0 * kappa * arm["power_w"] / (arm["mass_kg"] * wm * wl * lorentz)
    )


def cooperativity(arm):
    """C = 4 G^2 / (gamma kappa)."""
    g = enhanced_coupling(arm)
    return 4.0 * g * g / (TWO_PI * arm["gamma_hz"] * TWO_PI * arm["kappa_hz"])


def regime_ratios(arm, j):
    """The four regime ratios of arm j, in `regime_check` order."""
    kappa, wm = TWO_PI * arm["kappa_hz"], TWO_PI * arm["mech_freq_hz"]
    gamma = TWO_PI * arm["gamma_hz"]
    return [
        (f"sideband_resolution_{j}", wm / kappa),
        (f"weak_coupling_{j}", kappa / enhanced_coupling(arm)),
        (f"cavity_vs_mirror_decay_{j}", kappa / gamma),
        (f"mechanical_quality_{j}", wm / gamma),
    ]


def regime_status(ratio) -> str:
    if ratio >= REGIME_THRESHOLD:
        return "pass"
    if ratio >= REGIME_WARN_FLOOR:
        return "warn"
    return "fail"
