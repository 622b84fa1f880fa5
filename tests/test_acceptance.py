"""Acceptance suite: one test per end-to-end criterion, each printing a
single status line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Criterion 6 documents a symmetry that holds only approximately for
the built-in panels and is expected to fail; see the test for details.
"""

import io
import math
import time
from pathlib import Path

import numpy as np

from optosteer import (
    ReducedParams,
    TwoModeCovariance,
    build_drift_diffusion,
    covariance_closed_form,
    covariance_ode,
    enhanced_coupling,
    figure_panels,
    groblacher_setup,
    mean_fields,
    renyi2_entanglement,
    single_photon_coupling,
    stationary_covariance,
    steering_a_to_b,
    steering_b_to_a,
    steering_windows,
    sweep_time,
    cooperativity,
    detect_birth,
)
from optosteer.cli import main
from optosteer.gaussian import SteeringClass
from optosteer.scenario import PANEL_PARAMS
from conftest import random_reduced, random_sts

PANEL_IDS = ("2a", "2b", "2c", "2d", "3a", "3b", "3c", "3d", "3-inset")
GOLDEN_DIR = Path(__file__).parent / "goldens"


def report(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_closed_form_matches_lyapunov_oracle():
    """V elementwise at every grid point, then G(A->B), G(B->A) and E2 of
    the oracle's own trajectory (its columns) against the closed form's:
    the measures deviate by at most ~3.4e-13 on the nine panels."""
    grid = np.linspace(0.0, 5.0, 501)
    start = time.perf_counter()
    worst = 0.0
    worst_measure = 0.0
    for panel in PANEL_IDS:
        rp = PANEL_PARAMS[panel]
        traj = covariance_ode(rp, grid)
        for t, state in traj:
            ref = covariance_closed_form(rp, t)
            worst = max(worst, float(np.max(np.abs(state.matrix - ref.matrix))))
        oracle, closed = traj.columns(), covariance_closed_form(rp, grid)
        for measure in (steering_a_to_b, steering_b_to_a, renyi2_entanglement):
            worst_measure = max(
                worst_measure, float(np.max(np.abs(measure(oracle) - measure(closed))))
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and worst_measure < 1e-10 and elapsed < 30.0
    report(1, f"oracle equivalence (max dev {worst:.2e}, measures {worst_measure:.2e}, "
              f"{elapsed:.1f}s)", ok)
    assert worst < 1e-8
    assert worst_measure < 1e-10
    assert elapsed < 30.0


def test_02_stationary_state_solves_the_lyapunov_equation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        rp = random_reduced(rng)
        dd = build_drift_diffusion(rp)
        v = stationary_covariance(rp).matrix
        residual = np.max(np.abs(dd.drift @ v + v @ dd.drift.T + dd.diffusion))
        worst = max(worst, residual / np.max(np.abs(dd.diffusion)))
    ok = worst < 1e-12
    report(2, f"stationary residual (worst {worst:.2e})", ok)
    assert ok


def test_03_strong_coupling_limit_is_pure_squeezing():
    worst = 0.0
    for r in (0.5, 1.0, 1.7):
        rp = ReducedParams(c1=1e6, c2=1e6, nth1=1.0, nth2=1.0, r=r, gamma=1.0)
        cm = stationary_covariance(rp)
        worst = max(
            worst,
            abs(cm.v11 / (0.5 * math.cosh(2 * r)) - 1.0),
            abs(cm.v13 / (0.5 * math.sinh(2 * r)) - 1.0),
        )
    ok = worst < 1e-3
    report(3, f"strong-coupling limit (worst rel dev {worst:.2e})", ok)
    assert ok


def test_04_squeezed_vacuum_analytics():
    worst = 0.0
    for r in np.linspace(0.0, 2.0, 50):
        cm = TwoModeCovariance.two_mode_squeezed_vacuum(float(r))
        target = math.log(math.cosh(2.0 * r))
        worst = max(
            worst,
            abs(steering_a_to_b(cm) - target),
            abs(steering_b_to_a(cm) - target),
            abs(renyi2_entanglement(cm) - target),
        )
    ok = worst < 1e-10
    report(4, f"squeezed-vacuum analytics (worst dev {worst:.2e})", ok)
    assert ok


def test_05_hierarchy_and_asymmetry_bounds():
    ln2 = math.log(2.0)
    eps = 1e-9
    samples = []
    for panel in PANEL_IDS:
        samples.extend(figure_panels(panel).samples)
    ok = True
    for s in samples:
        ok &= max(s.g_ab, s.g_ba) <= s.e2 + 1e-12
        ok &= s.g_delta < ln2
        one_way = (s.g_ab > eps) != (s.g_ba > eps)
        if one_way:
            ok &= s.g_delta == max(s.g_ab, s.g_ba)
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        cm = random_sts(rng)
        g_ab, g_ba = steering_a_to_b(cm), steering_b_to_a(cm)
        e2 = renyi2_entanglement(cm)
        ok &= max(g_ab, g_ba) <= e2 + 1e-12
        ok &= abs(g_ab - g_ba) < ln2
        if (g_ab > eps) != (g_ba > eps):
            ok &= abs(g_ab - g_ba) == max(g_ab, g_ba)
    report(5, "steering bounded by entanglement, asymmetry below ln 2", ok)
    assert ok


def test_06_thermal_swap_symmetry_of_panels_2a_2b():
    """Pointwise equality of the 2a/2b entanglement columns (and interchange
    of their steering columns) at 1e-12.

    The claim behind it is exact only for the full mode relabeling, which
    interchanges the cooperativities together with the occupations (covered
    by test_scenario.TestPanels.test_full_mode_swap_is_exact).  Panels 2a
    and 2b interchange the occupations alone while keeping (c1, c2) =
    (15, 35), and for that operation the entanglement curve moves by about
    2e-2, so this check fails and is kept as an executable record of the
    deviation rather than loosened.
    """
    a = figure_panels("2a")
    b = figure_panels("2b")
    d_e2 = float(np.max(np.abs(a.column("e2") - b.column("e2"))))
    d_ab = float(np.max(np.abs(a.column("g_ab") - b.column("g_ba"))))
    d_ba = float(np.max(np.abs(a.column("g_ba") - b.column("g_ab"))))
    ok = d_e2 <= 1e-12 and d_ab <= 1e-12 and d_ba <= 1e-12
    report(6, f"thermal-swap symmetry (|dE2| {d_e2:.2e}, |dG| {max(d_ab, d_ba):.2e})", ok)
    assert ok, (
        "occupation swap alone is not an exact symmetry: "
        f"max|dE2| = {d_e2:.3e}, max|dG_ab<->ba| = {max(d_ab, d_ba):.3e}; "
        "exact invariance needs the cooperativities swapped as well"
    )


def test_07_qualitative_panel_facts():
    ok = True
    # (i) entangled yet never steerable in either direction
    for key in ("3a", "3-inset"):
        sweep = figure_panels(key)
        ok &= bool(np.any(sweep.column("e2") > 0.0))
        ok &= bool(np.all(sweep.column("g_ab") == 0.0))
        ok &= bool(np.all(sweep.column("g_ba") == 0.0))
    # (ii) one-way B->A occurs and two-way never does
    kinds = {w.kind for w in steering_windows(figure_panels("3d"))}
    ok &= SteeringClass.ONE_WAY_B_TO_A in kinds
    ok &= SteeringClass.TWO_WAY not in kinds
    # (iii) two disjoint one-way B->A periods
    for key in ("2c", "2d"):
        ba = [
            w for w in steering_windows(figure_panels(key))
            if w.kind is SteeringClass.ONE_WAY_B_TO_A
        ]
        ok &= len(ba) >= 2
    # (iv) every panel has a delayed sudden birth of entanglement
    for key in PANEL_IDS:
        birth = detect_birth(figure_panels(key), "e2")
        ok &= birth is not None and birth > 0.0
    report(7, "qualitative panel facts", ok)
    assert ok


def test_08_laboratory_parameter_reduction():
    p = groblacher_setup(power1=5e-3, power2=11e-3)
    c_low = cooperativity(p, 1)
    c_high = cooperativity(p, 2)
    ratio_ok = abs(c_high / c_low - 11.0 / 5.0) < 1e-12
    value_ok = abs(c_low - 15.0) / 15.0 < 0.15
    fields = mean_fields(p)
    cross_ok = True
    for j in (1, 2):
        direct = enhanced_coupling(p, j)
        via_field = single_photon_coupling(p.arm(j)) * abs(fields[j - 1].cavity)
        cross_ok &= abs(direct - via_field) / direct < 1e-12
    ok = ratio_ok and value_ok and cross_ok
    report(8, f"parameter reduction (C = {c_low:.3f}, {c_high:.3f})", ok)
    assert ok


def test_09_degenerate_inputs_produce_no_correlations():
    cases = (
        ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=0.75, r=0.0, gamma=1.0),
        ReducedParams(c1=0.0, c2=35.0, nth1=0.5, nth2=0.75, r=1.0, gamma=1.0),
        ReducedParams(c1=15.0, c2=0.0, nth1=0.5, nth2=0.75, r=1.0, gamma=1.0),
    )
    grid = np.linspace(0.0, 5.0, 1001)
    ok = True
    for rp in cases:
        for t in grid[::10]:
            cm = covariance_closed_form(rp, float(t))
            ok &= cm.v13 == 0.0 and cm.v24 == 0.0
        sweep = sweep_time(rp, grid)
        for name in ("g_ab", "g_ba", "g_delta", "e2"):
            ok &= bool(np.all(sweep.column(name) == 0.0))
    report(9, "degenerate inputs stay uncorrelated", ok)
    assert ok


def test_10_cli_determinism_and_golden_panels(capsys):
    ok = True
    for panel in PANEL_IDS:
        outputs = []
        for _ in range(3):
            assert main(["--mode", "figure", "--panel", panel]) == 0
            outputs.append(capsys.readouterr().out)
        ok &= outputs[0] == outputs[1] == outputs[2]
        golden = (GOLDEN_DIR / f"panel_{panel}.csv").read_text()
        ok &= outputs[0] == golden
    report(10, "CLI determinism and golden panel regression", ok)
    assert ok
