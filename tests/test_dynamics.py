import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from optosteer import (
    CovarianceTrajectory,
    IntegrationError,
    InvalidInput,
    ReducedParams,
    StsColumns,
    TwoModeCovariance,
    UnsupportedForm,
    build_drift_diffusion,
    covariance_closed_form,
    covariance_ode,
    stationary_covariance,
    validate_cm,
)
from optosteer.dynamics import DEFAULT_STEP, STEP_CHECK_TOL, _closed_form, _rk4_run
from optosteer.scenario import PANEL_PARAMS
from conftest import random_reduced

GAMMA = 2 * math.pi * 140.0


def textbook_rk4(rate, diffusion, grid, v0, step):
    """Classical four-stage RK4 on dV/dtau = rate * V + diffusion, one
    substep at a time, as the reference for _rk4_run's composed maps."""
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
    return np.array(out)


def assert_close_to_scale(got, ref, rtol):
    """Each matrix agrees with its reference to rtol times its largest entry."""
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * scale)


def lyapunov_by_expm(rp, grid, v0):
    """Third route: V(t) = e^{St} (V0 - V_inf) e^{St}^T + V_inf with V_inf
    from scipy's Lyapunov solver and e^{St} from scipy's expm."""
    linalg = pytest.importorskip("scipy.linalg")
    dd = build_drift_diffusion(rp)
    s, d = dd.drift / rp.gamma, dd.diffusion / rp.gamma
    v_inf = linalg.solve_continuous_lyapunov(s, -d)
    out = []
    for t in grid:
        e = linalg.expm(s * t)
        out.append(e @ (v0 - v_inf) @ e.T + v_inf)
    return np.array(out)


def rp_of(c1, c2, nth1, nth2, r, gamma=GAMMA):
    return ReducedParams(c1=c1, c2=c2, nth1=nth1, nth2=nth2, r=r, gamma=gamma)


class TestDriftDiffusion:
    def test_vacuum_bath_limit(self):
        rp = rp_of(0.0, 0.0, 0.0, 0.0, 0.0, gamma=2.0)
        dd = build_drift_diffusion(rp)
        assert np.array_equal(dd.drift, -1.0 * np.eye(4))
        assert np.array_equal(dd.diffusion, 1.0 * np.eye(4))

    def test_cross_diffusion_value(self):
        rp = rp_of(15.0, 35.0, 0.5, 1.0, 1.0, gamma=1.0)
        dd = build_drift_diffusion(rp)
        expected = 0.5 * math.sinh(2.0) * math.sqrt(15.0 * 35.0)
        assert dd.diffusion[0, 2] == pytest.approx(expected, rel=1e-12)
        assert dd.diffusion[0, 2] == pytest.approx(41.55, abs=0.01)
        assert dd.diffusion[1, 3] == -dd.diffusion[0, 2]

    def test_drift_strictly_negative_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dd = build_drift_diffusion(random_reduced(rng))
            assert np.array_equal(dd.drift, np.diag(np.diag(dd.drift)))
            assert np.all(np.diag(dd.drift) < 0.0)

    def test_diffusion_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dd = build_drift_diffusion(random_reduced(rng))
            scale = np.max(np.abs(dd.diffusion))
            eigs = np.linalg.eigvalsh(dd.diffusion)
            assert np.all(eigs >= -1e-12 * scale)

    def test_cross_correlation_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d = build_drift_diffusion(random_reduced(rng)).diffusion
            assert d[0, 2] ** 2 <= d[0, 0] * d[2, 2] * (1.0 + 1e-12)


class TestClosedForm:
    def test_initial_condition_is_exactly_identity(self):
        for rp in PANEL_PARAMS.values():
            assert np.array_equal(
                covariance_closed_form(rp, 0.0).matrix, np.eye(4)
            )

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInput):
            covariance_closed_form(PANEL_PARAMS["2a"], -0.1)

    def test_bad_time_in_an_array_rejected(self):
        for times in ([0.0, -0.1], [0.0, math.inf], [math.nan, 1.0]):
            with pytest.raises(InvalidInput):
                covariance_closed_form(PANEL_PARAMS["2a"], np.array(times))

    def test_array_of_times_gives_columns_of_the_matrices(self):
        # numpy's expm1 may differ from the C library's by an ulp
        rp = PANEL_PARAMS["2d"]
        grid = np.linspace(0.0, 5.0, 201)
        cols = covariance_closed_form(rp, grid)
        assert isinstance(cols, StsColumns)
        for name in ("v11", "v33", "v13"):
            np.testing.assert_allclose(
                getattr(cols, name),
                [getattr(covariance_closed_form(rp, t), name) for t in grid],
                rtol=1e-14, atol=0.0,
            )

    def test_stationary_diagonal_value(self):
        # ((2N+1) C1 + 2 nth1 + 1) / (2 (C1 + 1)) at C1 = 15, nth1 = 1, r = 1
        rp = rp_of(15.0, 35.0, 1.0, 1.0, 1.0)
        cm = stationary_covariance(rp)
        expected = ((2.0 * math.sinh(1.0) ** 2 + 1.0) * 15.0 + 3.0) / 32.0
        assert cm.v11 == pytest.approx(expected, rel=1e-14)
        assert cm.v11 == pytest.approx(1.8573, abs=2e-4)

    def test_stationary_cross_value(self):
        rp = rp_of(15.0, 35.0, 1.0, 1.0, 1.0)
        cm = stationary_covariance(rp)
        expected = math.sinh(2.0) * math.sqrt(525.0) / 52.0
        assert cm.v13 == pytest.approx(expected, rel=1e-14)
        assert cm.v13 == pytest.approx(1.598, abs=1e-3)

    def test_closed_form_converges_to_stationary(self):
        rp = rp_of(15.0, 35.0, 0.5, 1.0, 1.0)
        late = covariance_closed_form(rp, 20.0)
        limit = stationary_covariance(rp)
        assert np.allclose(late.matrix, limit.matrix, atol=1e-12)

    def test_bare_thermal_mirrors(self):
        rp = rp_of(0.0, 0.0, 0.7, 2.3, 1.5)
        cm = stationary_covariance(rp)
        assert cm.v11 == pytest.approx(1.2, rel=1e-14)
        assert cm.v33 == pytest.approx(2.8, rel=1e-14)
        assert cm.v13 == 0.0

    def test_strong_coupling_limit_set_by_squeezing_alone(self):
        for r in (0.5, 1.0, 1.7):
            rp = rp_of(1e6, 1e6, 1.0, 1.0, r)
            cm = stationary_covariance(rp)
            assert cm.v11 == pytest.approx(0.5 * math.cosh(2 * r), rel=1e-3)
            assert cm.v13 == pytest.approx(0.5 * math.sinh(2 * r), rel=1e-3)

    def test_monotone_approach_of_diagonals(self):
        # single-exponential elements never overshoot their stationary value
        grid = np.linspace(0.0, 5.0, 400)
        for rp in (PANEL_PARAMS["2a"], PANEL_PARAMS["3d"]):
            v11 = np.array([covariance_closed_form(rp, t).v11 for t in grid])
            v33 = np.array([covariance_closed_form(rp, t).v33 for t in grid])
            assert np.all(np.diff(v11) >= -1e-15)
            assert np.all(np.diff(v33) >= -1e-15)
        # cold bath with no squeezed input: monotone cooling toward 1/2
        cold = rp_of(10.0, 10.0, 0.0, 0.0, 0.0)
        v11 = np.array([covariance_closed_form(cold, t).v11 for t in grid])
        assert np.all(np.diff(v11) <= 1e-15)
        assert v11[-1] == pytest.approx(0.5, abs=1e-6)

    def test_zero_correlation_conditions(self):
        cases = [
            rp_of(15.0, 35.0, 0.5, 0.75, 0.0),
            rp_of(0.0, 35.0, 0.5, 0.75, 1.0),
            rp_of(15.0, 0.0, 0.5, 0.75, 1.0),
        ]
        for rp in cases:
            for t in np.linspace(0.0, 5.0, 50):
                cm = covariance_closed_form(rp, t)
                assert cm.v13 == 0.0
                assert cm.v24 == 0.0

    def test_mode_swap_exchanges_diagonals(self):
        rp = rp_of(15.0, 35.0, 0.5, 1.0, 1.0)
        swapped = rp_of(35.0, 15.0, 1.0, 0.5, 1.0)
        for t in np.linspace(0.0, 3.0, 30):
            a = covariance_closed_form(rp, t)
            b = covariance_closed_form(swapped, t)
            assert a.v11 == b.v33
            assert a.v33 == b.v11
            assert a.v13 == b.v13

    def test_trajectory_stays_bona_fide(self):
        for rp in PANEL_PARAMS.values():
            for t in np.linspace(0.0, 5.0, 200):
                report = validate_cm(covariance_closed_form(rp, t))
                assert report.nu_minus >= 0.5 - 1e-9


class TestStationaryResidual:
    def test_lyapunov_fixed_point(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rp = random_reduced(rng)
            dd = build_drift_diffusion(rp)
            v = stationary_covariance(rp).matrix
            residual = dd.drift @ v + v @ dd.drift.T + dd.diffusion
            assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(dd.diffusion))


class TestOdeOracle:
    def test_homogeneous_decay(self):
        # with D = 0 and S = -(1/2) I the solution is exp(-t) I
        s_diag = np.full(4, -0.5)
        rate = s_diag[:, None] + s_diag[None, :]
        grid = np.array([0.5, 1.0, 2.0])
        out = _rk4_run(rate, np.zeros((4, 4)), grid, np.eye(4), 1e-4)
        for t, v in zip(grid, out):
            assert np.allclose(v, math.exp(-t) * np.eye(4), atol=1e-12)

    def test_matches_closed_form_on_figure_sets(self):
        grid = np.linspace(0.0, 5.0, 101)
        for key in ("2a", "3d"):
            rp = PANEL_PARAMS[key]
            traj = covariance_ode(rp, grid)
            for t, state in traj:
                ref = covariance_closed_form(rp, t)
                assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    def test_equilibrium_start_stays_put(self):
        rp = PANEL_PARAMS["2a"]
        v_inf = stationary_covariance(rp).matrix
        traj = covariance_ode(rp, np.linspace(0.1, 2.0, 20), initial=v_inf)
        for _, state in traj:
            assert np.max(np.abs(state.matrix - v_inf)) < 1e-10

    def test_grid_validation(self):
        rp = PANEL_PARAMS["2a"]
        with pytest.raises(InvalidInput):
            covariance_ode(rp, [])
        with pytest.raises(InvalidInput):
            covariance_ode(rp, [0.0, 0.0, 1.0])
        with pytest.raises(InvalidInput):
            covariance_ode(rp, [-1.0, 1.0])

    def test_grid_need_not_start_at_zero(self):
        # integration always starts from the t = 0 initial condition
        rp = PANEL_PARAMS["2a"]
        traj = covariance_ode(rp, [0.5, 1.0])
        for t, state in traj:
            ref = covariance_closed_form(rp, t)
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    def test_unreachable_tolerance_raises(self, monkeypatch):
        import optosteer.dynamics as dyn

        # with only two halvings allowed, the change stays far above zero
        monkeypatch.setattr(dyn, "MAX_HALVINGS", 2)
        with pytest.raises(IntegrationError):
            covariance_ode(PANEL_PARAMS["2a"], [0.5, 1.0], step_tol=0.0)

    def test_states_are_symmetric_exactly(self):
        rp = PANEL_PARAMS["2c"]
        traj = covariance_ode(rp, np.linspace(0.0, 1.0, 11))
        for _, state in traj:
            assert np.array_equal(state.matrix, state.matrix.T)

    def test_trajectory_type_invariants(self):
        rp = PANEL_PARAMS["2a"]
        traj = covariance_ode(rp, np.linspace(0.0, 1.0, 5))
        assert len(traj) == 5
        assert np.all(np.diff(traj.times) > 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    def test_one_interval_matches_textbook_rk4(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            rate = -(10.0 ** rng.uniform(-2.0, 1.5, (4, 4)))
            diffusion = rng.uniform(-5.0, 5.0, (4, 4))
            v0 = rng.uniform(-3.0, 3.0, (4, 4))
            span = float(rng.uniform(0.01, 2.0))
            step = span / n * (1.0 + 1e-9)  # ceil(span / step) == n
            grid = np.array([span])
            assert_close_to_scale(
                _rk4_run(rate, diffusion, grid, v0, step),
                textbook_rk4(rate, diffusion, grid, v0, step),
                1e-13,
            )

    def test_grid_of_differing_spans_matches_textbook_rk4(self):
        rng = np.random.default_rng(41)
        grid = np.array([0.0, 0.013, 0.05, 0.0500001, 0.3, 0.31, 1.0, 1.5])
        for _ in range(50):
            rate = -(10.0 ** rng.uniform(-2.0, 1.5, (4, 4)))
            diffusion = rng.uniform(-5.0, 5.0, (4, 4))
            v0 = rng.uniform(-3.0, 3.0, (4, 4))
            assert_close_to_scale(
                _rk4_run(rate, diffusion, grid, v0, 0.01),
                textbook_rk4(rate, diffusion, grid, v0, 0.01),
                1e-13,
            )

    def test_uneven_grid_matches_closed_form(self):
        for rp in PANEL_PARAMS.values():
            traj = covariance_ode(rp, [0.0, 1e-3, 50.0])
            for t, state in traj:
                ref = covariance_closed_form(rp, t)
                assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    def test_equilibrium_start_on_an_uneven_grid_above_zero(self):
        for rp in PANEL_PARAMS.values():
            v_inf = stationary_covariance(rp).matrix
            traj = covariance_ode(rp, [0.25, 0.2500001, 40.0], initial=v_inf)
            assert np.max(np.abs(traj.matrices - v_inf)) < 1e-10

    def test_states_view_is_read_only_and_equals_the_array(self):
        traj = covariance_ode(PANEL_PARAMS["2b"], np.linspace(0.0, 1.0, 11))
        assert traj.matrices.shape == (11, 4, 4)
        assert not traj.matrices.flags.writeable
        assert not traj.times.flags.writeable
        with pytest.raises(ValueError):
            traj.matrices[0, 0, 0] = 2.0
        with pytest.raises(FrozenInstanceError):
            traj.states = ()
        assert isinstance(traj.states, tuple)
        assert len(traj.states) == len(traj)
        for i, (t, state) in enumerate(traj):
            assert t == traj.times[i]
            assert state is traj.states[i]
            assert state.matrix.tobytes() == traj.matrices[i].tobytes()
            assert np.shares_memory(state.matrix, traj.matrices)
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 2.0

    def test_run_diagnostics(self):
        traj = covariance_ode(PANEL_PARAMS["2a"], np.linspace(0.0, 5.0, 501))
        assert traj.halvings == 1
        assert traj.step == DEFAULT_STEP / 2 == 5e-5
        assert 0.0 <= traj.last_change <= STEP_CHECK_TOL

    def test_stiff_rates_converge_without_numpy_warnings(self):
        # the first steps are beyond RK4's stability limit and overflow
        rp = ReducedParams(c1=1e5, c2=2e4, nth1=1, nth2=1, r=1, gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = covariance_ode(rp, [0.05, 0.1])
        assert traj.halvings >= 2
        for t, state in traj:
            ref = covariance_closed_form(rp, t)
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"initial": np.full((4, 4), math.nan)},
        {"initial": np.eye(3)},
        {"step_tol": math.nan},
        {"step_tol": math.inf},
        {"step_tol": -1.0},
    ])
    def test_bad_inputs_refused_before_integrating(self, kwargs, monkeypatch):
        import optosteer.dynamics as dyn

        def never(*args):
            raise AssertionError("integrated before validating its inputs")

        monkeypatch.setattr(dyn, "_rk4_run", never)
        with pytest.raises(InvalidInput):
            covariance_ode(PANEL_PARAMS["2a"], [0.5, 1.0], **kwargs)


class TestColumns:
    def test_oracle_columns_are_its_matrices_entries(self):
        grid = np.linspace(0.0, 5.0, 501)
        for rp in PANEL_PARAMS.values():
            traj = covariance_ode(rp, grid)
            cols = traj.columns()
            assert isinstance(cols, StsColumns)
            assert np.array_equal(cols.v11, traj.matrices[:, 1, 1])
            assert np.array_equal(cols.v33, traj.matrices[:, 3, 3])
            assert np.array_equal(cols.v13, -traj.matrices[:, 3, 1])
            closed = covariance_closed_form(rp, grid)
            for name in ("v11", "v33", "v13"):
                assert np.max(np.abs(getattr(cols, name) - getattr(closed, name))) < 1e-8

    def test_another_sts_initial_state_gives_columns(self):
        v0 = stationary_covariance(PANEL_PARAMS["3d"]).matrix
        traj = covariance_ode(PANEL_PARAMS["2a"], [0.25, 3.0], initial=v0)
        assert np.array_equal(traj.columns().v11, traj.matrices[:, 0, 0])

    @pytest.mark.parametrize("entry", [
        (1, 1), (3, 3), (2, 0), (1, 3), (3, 1), (0, 1), (1, 0), (0, 3), (2, 3), (3, 2),
    ])
    def test_any_deviation_from_the_exact_pattern_raises(self, entry):
        traj = covariance_ode(PANEL_PARAMS["2c"], np.linspace(0.0, 1.0, 11))
        m = np.array(traj.matrices)
        m[7][entry] = np.nextafter(m[7][entry], math.inf)
        with pytest.raises(UnsupportedForm):
            CovarianceTrajectory(traj.times, m, 1, DEFAULT_STEP, 0.0).columns()

    def test_non_sts_initial_state_raises(self):
        v0 = np.eye(4)
        v0[0, 1] = v0[1, 0] = 0.1
        traj = covariance_ode(PANEL_PARAMS["2a"], [0.5, 1.0], initial=v0)
        with pytest.raises(UnsupportedForm):
            traj.columns()


def sts_by_item_writes(v11, v33, v13):
    """The standard-form matrix as built one entry at a time into zeros."""
    m = np.zeros((4, 4))
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = v11, v11, v33, v33
    m[0, 2] = m[2, 0] = v13
    m[1, 3] = m[3, 1] = -v13
    return m


class TestOneBuildPerMatrix:
    """Trajectory states and scalar closed forms are built once: neither
    goes through TwoModeCovariance's public checks and copy."""

    @pytest.fixture
    def post_inits(self, monkeypatch):
        calls = []
        post_init = TwoModeCovariance.__post_init__

        def counting(cm):
            calls.append(1)
            post_init(cm)

        monkeypatch.setattr(TwoModeCovariance, "__post_init__", counting)
        return calls

    def test_oracle_check_builds_no_matrix_twice(self, post_inits):
        rp = PANEL_PARAMS["2c"]
        traj = covariance_ode(rp, np.linspace(0.0, 0.1, 501))
        for t, state in traj:
            covariance_closed_form(rp, t)
        stationary_covariance(rp)
        assert len(post_inits) == 0
        TwoModeCovariance(np.eye(4))  # the public constructor still checks
        assert len(post_inits) == 1

    def test_scalar_closed_form_has_the_bits_of_item_writes(self):
        rng = np.random.default_rng(31)
        for k in range(1000):
            rp = random_reduced(rng)
            t = 0.0 if k == 0 else float(10.0 ** rng.uniform(-4.0, 1.5))
            cm = covariance_closed_form(rp, t)
            assert cm.matrix.tobytes() == sts_by_item_writes(*_closed_form(rp, t)).tobytes()
            assert not cm.matrix.flags.writeable
            assert not cm.matrix.base.flags.writeable


class TestThirdRoute:
    """scipy's expm and Lyapunov solver against both package routes."""

    def test_panels_agree_with_closed_form_and_oracle(self):
        grid = np.linspace(0.0, 5.0, 501)
        for rp in PANEL_PARAMS.values():
            ref = lyapunov_by_expm(rp, grid, np.eye(4))
            closed = np.array([covariance_closed_form(rp, t).matrix for t in grid])
            assert np.max(np.abs(closed - ref)) < 1e-12
            assert np.max(np.abs(covariance_ode(rp, grid).matrices - ref)) < 1e-11

    def test_oracle_from_another_initial_state(self):
        grid = [0.25, 0.2500001, 3.0]
        v0 = stationary_covariance(PANEL_PARAMS["3d"]).matrix
        for key in ("2a", "3a", "3-inset"):
            rp = PANEL_PARAMS[key]
            traj = covariance_ode(rp, grid, initial=v0)
            assert np.max(np.abs(traj.matrices - lyapunov_by_expm(rp, grid, v0))) < 1e-11
