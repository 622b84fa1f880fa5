import math

import numpy as np
import pytest

from optosteer import (
    IntegrationError,
    InvalidInput,
    ReducedParams,
    StsColumns,
    build_drift_diffusion,
    covariance_closed_form,
    covariance_ode,
    stationary_covariance,
    validate_cm,
)
from optosteer.dynamics import _rk4_run
from optosteer.scenario import PANEL_PARAMS
from conftest import random_reduced

GAMMA = 2 * math.pi * 140.0


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
