import math

import numpy as np
import pytest

from optosteer import (
    InvalidInput,
    NonPhysicalState,
    ReducedParams,
    SteeringClass,
    classify_steering,
    covariance_closed_form,
    detect_birth,
    evaluate_measures,
    figure_panels,
    renyi2_entanglement,
    steering_a_to_b,
    steering_b_to_a,
    steering_windows,
    sweep_time,
)
from optosteer.scenario import MEASURE_NAMES, PANEL_PARAMS, REFINE_TOL, default_grid
from conftest import random_reduced


#: (A->B steerable, B->A steerable) of each steering class.
DIRECTIONS = {
    SteeringClass.NO_WAY: (False, False),
    SteeringClass.ONE_WAY_A_TO_B: (True, False),
    SteeringClass.ONE_WAY_B_TO_A: (False, True),
    SteeringClass.TWO_WAY: (True, True),
}


def grid_n(n, stop=5.0):
    return np.linspace(0.0, stop, n)


class TestSweep:
    def test_no_squeezing_means_no_correlations(self):
        rp = ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=0.75, r=0.0, gamma=1.0)
        sweep = sweep_time(rp, grid_n(101))
        for s in sweep.samples:
            assert s.g_ab == 0.0 and s.g_ba == 0.0
            assert s.g_delta == 0.0 and s.e2 == 0.0
            assert s.steering_class is SteeringClass.NO_WAY

    def test_g_delta_recomputed_from_the_directions(self):
        s = evaluate_measures(PANEL_PARAMS["2a"], 0.2)
        assert s.g_delta == abs(s.g_ab - s.g_ba)

    def test_class_consistent_with_measures(self):
        sweep = figure_panels("2c", grid=grid_n(401))
        for s in sweep.samples:
            ab, ba = s.g_ab > sweep.epsilon, s.g_ba > sweep.epsilon
            assert DIRECTIONS[s.steering_class] == (ab, ba)

    def test_deterministic(self):
        a = sweep_time(PANEL_PARAMS["2a"], grid_n(100))
        b = sweep_time(PANEL_PARAMS["2a"], grid_n(100))
        assert a.samples == b.samples

    def test_hierarchy_and_asymmetry_bounds_hold_pointwise(self):
        sweep = figure_panels("2a", grid=grid_n(301))
        ln2 = math.log(2.0)
        for s in sweep.samples:
            assert max(s.g_ab, s.g_ba) <= s.e2 + 1e-12
            assert s.g_delta < ln2

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInput):
            sweep_time(PANEL_PARAMS["2a"], [])
        with pytest.raises(InvalidInput):
            sweep_time(PANEL_PARAMS["2a"], [0.0, 0.0])

    @pytest.mark.parametrize(
        "grid", [[-1.0, 0.0, 1.0], [0.0, 1.0, math.inf], [0.0, math.nan]]
    )
    def test_negative_or_non_finite_grid_rejected(self, grid):
        with pytest.raises(InvalidInput):
            sweep_time(PANEL_PARAMS["2a"], grid)


class TestColumns:
    """A sweep evaluates its grid at once with numpy; a single time runs the
    same formulas on floats with the math module, whose expm1 and log can
    differ from numpy's by an ulp.  That rounding, carried through the
    formulas, bounds the agreement: rtol 1e-10 with atol 1e-14.  Measured on
    the nine panels over 1001 points and 100 random parameter sets over 301
    points, 151 of 117,327 values differ, the worst by 3.3e-13 relative, and
    no steering class differs."""

    def test_sweep_columns_match_single_point_evaluation(self):
        rng = np.random.default_rng(43)
        cases = [(rp, grid_n(201)) for rp in PANEL_PARAMS.values()]
        cases += [(random_reduced(rng), grid_n(101, stop=3.0)) for _ in range(30)]
        for rp, grid in cases:
            sweep = sweep_time(rp, grid)
            points = [evaluate_measures(rp, t) for t in grid]
            assert np.array_equal(sweep.times, [p.gamma_t for p in points])
            for name in MEASURE_NAMES:
                np.testing.assert_allclose(
                    sweep.column(name), [getattr(p, name) for p in points],
                    rtol=1e-10, atol=1e-14,
                )
            assert list(sweep.measures.steering_class) == [
                p.steering_class for p in points
            ]

    def test_single_time_is_bit_equal_to_the_public_matrix(self):
        # evaluate_measures holds one time as floats, never as a matrix; the
        # matrix from covariance_closed_form gives the same bits.
        rng = np.random.default_rng(61)
        for _ in range(300):
            rp, t = random_reduced(rng), float(10.0 ** rng.uniform(-6.0, 1.0))
            sample, cm = evaluate_measures(rp, t), covariance_closed_form(rp, t)
            assert (sample.g_ab, sample.g_ba, sample.e2, sample.steering_class) == (
                steering_a_to_b(cm), steering_b_to_a(cm), renyi2_entanglement(cm),
                classify_steering(cm))
            assert all(type(v) is float for v in (sample.g_ab, sample.g_ba, sample.e2))

    def test_samples_view_matches_columns(self):
        sweep = figure_panels("2c", grid=grid_n(301))
        samples = sweep.samples
        assert samples is sweep.samples  # built once
        assert [s.gamma_t for s in samples] == sweep.times.tolist()
        for name in MEASURE_NAMES:
            assert [getattr(s, name) for s in samples] == sweep.column(name).tolist()
        assert [s.steering_class for s in samples] == list(sweep.measures.steering_class)
        assert all(type(s.g_ab) is float and type(s.e2) is float for s in samples)

    def test_equality_compares_contents(self):
        a = sweep_time(PANEL_PARAMS["2a"], grid_n(11))
        b = sweep_time(PANEL_PARAMS["2a"], grid_n(11))
        assert a == b and a.measures == b.measures
        c = sweep_time(PANEL_PARAMS["2a"], grid_n(12))
        assert a != c and a.measures != c.measures
        assert a != sweep_time(PANEL_PARAMS["2b"], grid_n(11))

    def test_columns_are_read_only(self):
        sweep = figure_panels("2a", grid=grid_n(11))
        with pytest.raises(ValueError):
            sweep.measures.g_ab[0] = 1.0
        copy = sweep.column("g_ab")
        copy[0] = 1.0  # the accessors hand out copies
        assert sweep.measures.g_ab[0] == 0.0


class TestPrecisionLimit:
    """At large squeezing the entries of V grow like e^{2r}, and the
    determinants the measures take the log of overflow or cancel to garbage.
    Such a state is refused with NonPhysicalState, on the float and the
    column path alike, instead of a bare math error or a nan entry."""

    RP = ReducedParams(c1=24.208324507649493, c2=20.7809039848931, nth1=0.0,
                       nth2=0.0, r=28.262588609210297, gamma=1.0)
    T = 1.1952715755823119e-08

    def test_single_time_refused(self):
        with pytest.raises(NonPhysicalState, match="double precision"):
            evaluate_measures(self.RP, self.T)

    def test_sweep_refused(self):
        with pytest.raises(NonPhysicalState, match="double precision"):
            sweep_time(self.RP, [0.0, self.T])

    @pytest.mark.parametrize("r", [90.0, 120.0, 150.0, 178.0, 300.0])
    def test_overflowing_determinants_refused(self, r):
        rp = ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=1.0, r=r, gamma=1.0)
        for run in (lambda: evaluate_measures(rp, 0.5),
                    lambda: sweep_time(rp, grid_n(11))):
            with pytest.raises(NonPhysicalState):
                run()


class TestBirthDetection:
    def test_absent_when_never_positive(self):
        rp = ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=0.75, r=0.0, gamma=1.0)
        sweep = sweep_time(rp, grid_n(101))
        assert detect_birth(sweep, "e2") is None

    def test_entanglement_birth_is_strictly_positive(self):
        sweep = figure_panels("2a")
        birth = detect_birth(sweep, "e2")
        assert birth is not None and birth > 0.0

    def test_birth_is_a_genuine_epsilon_crossing(self):
        sweep = figure_panels("2a")
        birth = detect_birth(sweep, "e2")
        before = evaluate_measures(sweep.params, birth - 1e-5).e2
        after = evaluate_measures(sweep.params, birth + 1e-5).e2
        assert before <= sweep.epsilon < after

    def test_entanglement_precedes_steering(self):
        # steering needs stronger correlations, so it can only come later
        for key in ("2a", "2b", "2c", "2d", "3b", "3c", "3d"):
            sweep = figure_panels(key)
            e2_birth = detect_birth(sweep, "e2")
            for which in ("g_ab", "g_ba"):
                steer_birth = detect_birth(sweep, which)
                if steer_birth is not None:
                    assert e2_birth is not None
                    assert e2_birth <= steer_birth

    def test_stable_under_grid_refinement(self):
        coarse = figure_panels("2a", grid=grid_n(1001))
        fine = figure_panels("2a", grid=grid_n(2001))
        for which in ("e2", "g_ba"):
            t1 = detect_birth(coarse, which)
            t2 = detect_birth(fine, which)
            assert abs(t1 - t2) < 1e-6


class TestWindows:
    def test_quiet_series_is_one_no_way_window(self):
        rp = ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=0.75, r=0.0, gamma=1.0)
        sweep = sweep_time(rp, grid_n(101))
        windows = steering_windows(sweep)
        assert len(windows) == 1
        assert windows[0].kind is SteeringClass.NO_WAY
        assert windows[0].start == 0.0
        assert windows[0].end == 5.0

    def test_windows_tile_the_grid_span(self):
        sweep = figure_panels("2c")
        windows = steering_windows(sweep)
        assert windows[0].start == sweep.times[0]
        assert windows[-1].end == sweep.times[-1]
        for left, right in zip(windows, windows[1:]):
            assert left.end == right.start
            assert left.kind is not right.kind

    def test_one_way_only_panel(self):
        windows = steering_windows(figure_panels("3d"))
        kinds = {w.kind for w in windows}
        assert SteeringClass.ONE_WAY_B_TO_A in kinds
        assert SteeringClass.TWO_WAY not in kinds
        assert SteeringClass.ONE_WAY_A_TO_B not in kinds

    def test_two_revival_periods(self):
        for key in ("2c", "2d"):
            windows = steering_windows(figure_panels(key))
            ba = [w for w in windows if w.kind is SteeringClass.ONE_WAY_B_TO_A]
            assert len(ba) >= 2

    def test_boundaries_straddle_epsilon(self):
        sweep = figure_panels("2c")
        windows = steering_windows(sweep)
        for w in windows[:-1]:
            edge = w.end
            lo = evaluate_measures(sweep.params, edge - 1e-5, sweep.epsilon)
            hi = evaluate_measures(sweep.params, edge + 1e-5, sweep.epsilon)
            flipped = (
                (lo.g_ab > sweep.epsilon) != (hi.g_ab > sweep.epsilon)
                or (lo.g_ba > sweep.epsilon) != (hi.g_ba > sweep.epsilon)
            )
            assert flipped

    def test_both_crossings_in_one_interval_keep_the_one_way_window(self):
        # G(A->B) and G(B->A) both cross epsilon between grid points
        # 0.025 and 0.030; the one-way run between them is a window
        rp = ReducedParams(c1=59.55260473056391, c2=51.596791727717395,
                           nth1=0.36266987941741924, nth2=0.9980855560803873,
                           r=1.8037110189581709, gamma=1.0)
        windows = steering_windows(sweep_time(rp, default_grid()))
        assert [w.kind for w in windows] == [
            SteeringClass.NO_WAY, SteeringClass.ONE_WAY_A_TO_B, SteeringClass.TWO_WAY]
        assert windows[1].start < 0.02655 < windows[1].end
        assert windows[1].end - windows[1].start < default_grid()[1]

    def test_random_windows_flip_one_direction_and_match_their_midpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c1, c2 = rng.uniform(0.0, 60.0, 2)
            nth1, nth2 = rng.uniform(0.0, 3.0, 2)
            rp = ReducedParams(c1=float(c1), c2=float(c2), nth1=float(nth1),
                               nth2=float(nth2), r=float(rng.uniform(0.0, 2.5)),
                               gamma=1.0)
            windows = steering_windows(sweep_time(rp, default_grid()))
            for w in windows:
                mid = evaluate_measures(rp, 0.5 * (w.start + w.end))
                assert mid.steering_class is w.kind, (rp, w)
            for left, right in zip(windows, windows[1:]):
                a, b = DIRECTIONS[left.kind], DIRECTIONS[right.kind]
                assert (a[0] != b[0]) + (a[1] != b[1]) == 1, (rp, left, right)

    def test_simultaneous_crossings_make_one_edge(self):
        # at equal parameters both measures cross at the same bisected time
        rp = ReducedParams(c1=15.0, c2=15.0, nth1=1.0, nth2=1.0, r=1.0, gamma=1.0)
        windows = steering_windows(sweep_time(rp, default_grid()))
        assert [w.kind for w in windows] == [SteeringClass.NO_WAY, SteeringClass.TWO_WAY]


class TestRefineTol:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_rejected(self, tol):
        sweep = figure_panels("2a")
        with pytest.raises(InvalidInput):
            detect_birth(sweep, "e2", refine_tol=tol)
        with pytest.raises(InvalidInput):
            steering_windows(sweep, refine_tol=tol)

    def test_tiny_tolerance_stops_at_float_resolution(self):
        sweep = figure_panels("2a")
        birth = detect_birth(sweep, "e2", refine_tol=1e-300)
        assert abs(birth - detect_birth(sweep, "e2")) < REFINE_TOL
        fine = steering_windows(sweep, refine_tol=1e-300)
        default = steering_windows(sweep)
        assert [w.kind for w in fine] == [w.kind for w in default]
        for a, b in zip(fine, default):
            assert abs(a.end - b.end) < REFINE_TOL


class TestPanels:
    def test_unknown_panel_rejected(self):
        with pytest.raises(InvalidInput):
            figure_panels("9z")

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 1001
        assert grid[0] == 0.0 and grid[-1] == 5.0

    def test_entangled_but_never_steerable_panels(self):
        for key in ("3a", "3-inset"):
            sweep = figure_panels(key)
            assert np.all(sweep.column("g_ab") == 0.0)
            assert np.all(sweep.column("g_ba") == 0.0)
            assert np.any(sweep.column("e2") > 0.0)

    def test_low_squeezing_inside_delay_window(self):
        # early times sit before the sudden birth of every measure
        s = evaluate_measures(PANEL_PARAMS["2a"], 0.05)
        assert s.g_ab == 0.0 and s.g_ba == 0.0

    def test_one_way_classification_mid_transient(self):
        s = evaluate_measures(PANEL_PARAMS["3d"], 0.2)
        assert s.steering_class is SteeringClass.ONE_WAY_B_TO_A

    def test_full_mode_swap_is_exact(self):
        # exchanging both cooperativities and occupations relabels the modes
        base = PANEL_PARAMS["2a"]
        swapped = ReducedParams(c1=base.c2, c2=base.c1, nth1=base.nth2,
                                nth2=base.nth1, r=base.r, gamma=base.gamma)
        a = sweep_time(base, grid_n(201))
        b = sweep_time(swapped, grid_n(201))
        for sa, sb in zip(a.samples, b.samples):
            assert sa.e2 == sb.e2
            assert sa.g_ab == sb.g_ba
            assert sa.g_ba == sb.g_ab
