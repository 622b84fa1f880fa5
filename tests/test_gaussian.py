import math
import warnings

import numpy as np
import pytest

from optosteer import (
    InvalidInput,
    NonPhysicalState,
    SteeringClass,
    StsColumns,
    TwoModeCovariance,
    UnsupportedForm,
    classify_steering,
    renyi2_entanglement,
    steering_a_to_b,
    steering_asymmetry,
    steering_b_to_a,
    swap_modes,
    symplectic_eigenvalues,
    validate_cm,
)
from conftest import random_sts

OMEGA = np.array([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
], dtype=float)


def symplectic_oracle(m):
    """Independent route: moduli of the eigenvalues of i*Omega*V."""
    eigs = np.abs(np.linalg.eigvals(1j * OMEGA @ m))
    eigs.sort()
    return eigs[0], eigs[2]  # each doubly degenerate


def steering_oracle(m, direction):
    """Definitional route via the Schur complement of the measured mode."""
    v1, v2, v3 = m[:2, :2], m[2:, 2:], m[:2, 2:]
    if direction == "ab":
        rest = v2 - v3.T @ np.linalg.inv(v1) @ v3
    else:
        rest = v1 - v3 @ np.linalg.inv(v2) @ v3.T
    nu = math.sqrt(np.linalg.det(rest))
    return max(0.0, -math.log(2.0 * nu))


class TestConstructionAndValidation:
    def test_equality_compares_contents(self):
        assert TwoModeCovariance.vacuum() == TwoModeCovariance.vacuum()
        assert TwoModeCovariance.vacuum() != TwoModeCovariance(np.eye(4))

    def test_vacuum_is_bona_fide_with_nu_half(self):
        report = validate_cm(TwoModeCovariance.vacuum())
        assert report.symmetric and report.positive_definite and report.bona_fide
        assert report.nu_minus == pytest.approx(0.5, abs=1e-15)
        assert report.nu_plus == pytest.approx(0.5, abs=1e-15)

    def test_identity_is_a_symmetric_thermal_state(self):
        report = validate_cm(TwoModeCovariance(np.eye(4)))
        assert report.ok
        assert report.nu_minus == pytest.approx(1.0, abs=1e-15)

    def test_sub_vacuum_variances_are_positive_definite_but_not_bona_fide(self):
        report = validate_cm(TwoModeCovariance(0.1 * np.eye(4)))
        assert report.positive_definite
        assert not report.bona_fide
        assert report.nu_minus == pytest.approx(0.1, abs=1e-15)

    def test_non_finite_entries_rejected(self):
        m = np.eye(4)
        m[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            TwoModeCovariance(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidInput):
            TwoModeCovariance(np.eye(3))

    def test_asymmetric_matrix_flagged(self):
        m = np.eye(4)
        m[0, 1] = 0.3
        assert not validate_cm(TwoModeCovariance(m)).symmetric

    def test_matrix_is_read_only(self):
        cm = TwoModeCovariance.vacuum()
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0


class TestSymplecticEigenvalues:
    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            cm = random_sts(rng)
            nu_m, nu_p = symplectic_eigenvalues(cm)
            ref_m, ref_p = symplectic_oracle(cm.matrix)
            assert nu_m == pytest.approx(ref_m, rel=1e-10)
            assert nu_p == pytest.approx(ref_p, rel=1e-10)

    def test_squeezed_vacuum_stays_pure(self):
        for r in (0.0, 0.7, 1.5):
            nu_m, nu_p = symplectic_eigenvalues(
                TwoModeCovariance.two_mode_squeezed_vacuum(r)
            )
            assert nu_m == pytest.approx(0.5, abs=1e-9)
            assert nu_p == pytest.approx(0.5, abs=1e-9)


class TestSteering:
    def test_vacuum_is_unsteerable(self):
        cm = TwoModeCovariance.vacuum()
        assert steering_a_to_b(cm) == 0.0
        assert steering_b_to_a(cm) == 0.0

    def test_squeezed_vacuum_value_is_log_cosh(self):
        cm = TwoModeCovariance.two_mode_squeezed_vacuum(1.0)
        expected = math.log(math.cosh(2.0))
        assert steering_a_to_b(cm) == pytest.approx(expected, abs=1e-12)
        assert steering_b_to_a(cm) == pytest.approx(expected, abs=1e-12)

    def test_matches_schur_complement_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cm = random_sts(rng)
            assert steering_a_to_b(cm) == pytest.approx(
                steering_oracle(cm.matrix, "ab"), abs=1e-10
            )
            assert steering_b_to_a(cm) == pytest.approx(
                steering_oracle(cm.matrix, "ba"), abs=1e-10
            )

    def test_reduced_form_identity_on_standard_states(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            cm = random_sts(rng)
            red_ab = -math.log(2.0 * (cm.v33 - cm.v13**2 / cm.v11))
            red_ba = -math.log(2.0 * (cm.v11 - cm.v13**2 / cm.v33))
            assert steering_a_to_b(cm) == pytest.approx(max(0.0, red_ab), abs=1e-10)
            assert steering_b_to_a(cm) == pytest.approx(max(0.0, red_ba), abs=1e-10)

    def test_swap_exchanges_directions_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            cm = random_sts(rng)
            swapped = swap_modes(cm)
            assert steering_b_to_a(cm) == steering_a_to_b(swapped)
            assert steering_a_to_b(cm) == steering_b_to_a(swapped)

    def test_negative_determinant_is_non_physical(self):
        cm = TwoModeCovariance.from_standard_form(1.0, 1.0, 1.5, v24=0.0)
        with pytest.raises(NonPhysicalState):
            steering_a_to_b(cm)

    def test_non_positive_variance_is_non_physical(self):
        cm = TwoModeCovariance.from_standard_form(-1.0, 1.0, 0.0)
        with pytest.raises(NonPhysicalState):
            steering_a_to_b(cm)
        with pytest.raises(NonPhysicalState):
            steering_b_to_a(cm)


class TestAsymmetry:
    def test_symmetric_states_have_no_asymmetry(self):
        for r in (0.3, 1.0, 2.0):
            cm = TwoModeCovariance.two_mode_squeezed_vacuum(r)
            assert steering_asymmetry(cm) == 0.0

    def test_bounded_by_ln2_on_random_states(self):
        rng = np.random.default_rng(19)
        bound = math.log(2.0)
        for _ in range(2000):
            assert steering_asymmetry(random_sts(rng)) < bound


class TestRenyi2:
    def test_vacuum_is_separable(self):
        assert renyi2_entanglement(TwoModeCovariance.vacuum()) == 0.0

    def test_squeezed_vacuum_value_is_log_cosh(self):
        for r in (0.2, 1.0, 1.8):
            cm = TwoModeCovariance.two_mode_squeezed_vacuum(r)
            assert renyi2_entanglement(cm) == pytest.approx(
                math.log(math.cosh(2.0 * r)), abs=1e-12
            )

    def test_swap_invariance_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            cm = random_sts(rng)
            assert renyi2_entanglement(cm) == renyi2_entanglement(swap_modes(cm))

    def test_product_states_are_null(self):
        cm = TwoModeCovariance.from_standard_form(1.3, 2.4, 0.0)
        assert renyi2_entanglement(cm) == 0.0
        assert steering_a_to_b(cm) == 0.0
        assert steering_b_to_a(cm) == 0.0

    def test_entanglement_requires_negative_cross_determinant(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            cm = random_sts(rng)
            if renyi2_entanglement(cm) > 0.0:
                det_v3 = cm.v13 * cm.v24
                assert det_v3 < 0.0

    def test_non_standard_form_rejected(self):
        cm = TwoModeCovariance.from_standard_form(1.0, 1.0, 0.4, v22=1.2)
        with pytest.raises(UnsupportedForm):
            renyi2_entanglement(cm)
        cross_sign = TwoModeCovariance.from_standard_form(1.0, 1.0, 0.4, v24=0.4)
        with pytest.raises(UnsupportedForm):
            renyi2_entanglement(cross_sign)

    def test_gap_region_rejected_as_non_physical(self):
        # s = 1.75, d = 1.25, g = 1: inside 4g < 4|d| + 1 yet below 4s - 1
        cm = TwoModeCovariance.from_standard_form(3.0, 0.5, math.sqrt(0.5))
        with pytest.raises(NonPhysicalState):
            renyi2_entanglement(cm)

    @pytest.mark.parametrize("r", [20.0, 100.0])
    def test_unresolvable_float_state_is_non_physical(self, r):
        # r = 20: g cancels so 4(d^2 + g) is 0; r = 100: (4g - 1)^2 overflows
        cm = TwoModeCovariance.squeezed_thermal(r, 0.1, 0.2)
        with pytest.raises(NonPhysicalState):
            renyi2_entanglement(cm)

    def test_steering_bounded_by_entanglement(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            cm = random_sts(rng)
            top = max(steering_a_to_b(cm), steering_b_to_a(cm))
            assert top <= renyi2_entanglement(cm) + 1e-12

    def test_steerable_implies_entangled(self):
        rng = np.random.default_rng(37)
        eps = 1e-9
        for _ in range(1000):
            cm = random_sts(rng)
            if steering_a_to_b(cm) > eps or steering_b_to_a(cm) > eps:
                assert renyi2_entanglement(cm) > 0.0


class TestClassification:
    def test_vacuum_is_no_way(self):
        assert classify_steering(TwoModeCovariance.vacuum()) is SteeringClass.NO_WAY

    def test_squeezed_vacuum_is_two_way(self):
        cm = TwoModeCovariance.two_mode_squeezed_vacuum(1.0)
        assert classify_steering(cm) is SteeringClass.TWO_WAY

    def test_one_way_states_classified(self):
        # heating mode A blocks the steering of A while B stays steerable
        cm = TwoModeCovariance.squeezed_thermal(0.5, 1.5, 0.0)
        g_ab, g_ba = steering_a_to_b(cm), steering_b_to_a(cm)
        assert g_ba == 0.0 and g_ab > 0.0
        assert classify_steering(cm) is SteeringClass.ONE_WAY_A_TO_B
        flipped = swap_modes(cm)
        assert classify_steering(flipped) is SteeringClass.ONE_WAY_B_TO_A

    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidInput):
            classify_steering(TwoModeCovariance.vacuum(), epsilon=0.0)

    def test_epsilon_must_be_finite(self):
        for epsilon in (math.nan, math.inf):
            with pytest.raises(InvalidInput):
                classify_steering(TwoModeCovariance.vacuum(), epsilon=epsilon)

    def test_nonnegativity_of_all_measures(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            cm = random_sts(rng)
            assert steering_a_to_b(cm) >= 0.0
            assert steering_b_to_a(cm) >= 0.0
            assert steering_asymmetry(cm) >= 0.0
            assert renyi2_entanglement(cm) >= 0.0


class TestStsColumns:
    """Columns run the formulas with numpy, single states with math; see
    test_scenario.TestColumns for the tolerance."""

    def test_columns_agree_with_single_states(self):
        rng = np.random.default_rng(47)
        states = [random_sts(rng) for _ in range(300)]
        cols = StsColumns(*([getattr(cm, v) for cm in states] for v in ("v11", "v33", "v13")))
        for measure in (steering_a_to_b, steering_b_to_a, steering_asymmetry,
                        renyi2_entanglement):
            np.testing.assert_allclose(
                measure(cols), [measure(cm) for cm in states], rtol=1e-10, atol=1e-14
            )
        assert list(classify_steering(cols)) == [classify_steering(cm) for cm in states]

    def test_one_non_physical_entry_fails_the_column(self):
        with pytest.raises(NonPhysicalState):
            steering_a_to_b(StsColumns([1.0, -1.0], [1.0, 1.0], [0.0, 0.0]))
        with pytest.raises(NonPhysicalState):  # the gap-region state of TestRenyi2
            renyi2_entanglement(StsColumns([1.0, 3.0], [1.0, 0.5], [0.0, math.sqrt(0.5)]))

    def test_equality_compares_contents(self):
        cols = StsColumns([1.0, 2.0], [1.0, 2.0], [0.0, 0.5])
        assert cols == StsColumns([1.0, 2.0], [1.0, 2.0], [0.0, 0.5])
        assert cols != StsColumns([1.0, 2.0], [1.0, 2.0], [0.0, 0.4])
        assert StsColumns(1.0, 2.0, 0.5) == StsColumns(1.0, 2.0, 0.5)
        assert hash(StsColumns(1.0, 2.0, 0.5)) == hash(StsColumns(1.0, 2.0, 0.5))

    def test_malformed_columns_rejected(self):
        with pytest.raises(InvalidInput):
            StsColumns([1.0, 2.0], [1.0], [0.0, 0.0])
        with pytest.raises(InvalidInput):
            StsColumns([1.0, math.nan], [1.0, 1.0], [0.0, 0.0])


def _floats(cm):
    return StsColumns(float(cm.v11), float(cm.v33), float(cm.v13))


class TestOneState:
    """StsColumns of three floats is one state; a matrix is measured through
    its determinants, and on an exact STS that gives the same bits."""

    def test_floats_give_floats(self):
        state = _floats(TwoModeCovariance.squeezed_thermal(1.0, 0.5, 0.2))
        for measure in (steering_a_to_b, steering_b_to_a, renyi2_entanglement):
            assert type(measure(state)) is float
        assert classify_steering(state) is SteeringClass.TWO_WAY

    def test_numpy_scalars_are_held_as_floats(self):
        state = StsColumns(np.float64(1.5), np.float64(1.5), np.float64(1.0))
        assert all(type(v) is float for v in (state.v11, state.v33, state.v13))

    def test_non_finite_floats_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput):
                StsColumns(1.0, bad, 0.0)

    def test_exact_sts_matrix_is_bit_equal_to_its_floats(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            cm = random_sts(rng)
            for c in (cm, swap_modes(cm)):
                state = _floats(c)
                assert steering_a_to_b(c) == steering_a_to_b(state)
                assert steering_b_to_a(c) == steering_b_to_a(state)
                assert renyi2_entanglement(c) == renyi2_entanglement(state)
                assert classify_steering(c) is classify_steering(state)

    def test_local_rotation_of_mode_b_leaves_steering_unchanged(self):
        # The rotated matrix leaves standard form: the LU determinant path.
        rng = np.random.default_rng(53)
        for _ in range(3000):
            cm = TwoModeCovariance.squeezed_thermal(
                float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.0, 5.0)))
            c, s = math.cos(theta := rng.uniform(0.0, 2.0 * math.pi)), math.sin(theta)
            rot = np.eye(4)
            rot[2:, 2:] = [[c, -s], [s, c]]
            rotated = TwoModeCovariance(rot @ cm.matrix @ rot.T)
            for measure in (steering_a_to_b, steering_b_to_a):
                assert measure(rotated) == pytest.approx(measure(cm), rel=1e-10, abs=1e-15)

    def test_overflowing_state_raises_without_warning(self):
        cm = TwoModeCovariance.squeezed_thermal(200.0, 0.1, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in (steering_a_to_b, steering_b_to_a, classify_steering):
                with pytest.raises(NonPhysicalState):
                    measure(cm)

    def test_renyi2_of_a_nearly_sts_matrix_uses_its_entries(self):
        cm = TwoModeCovariance.squeezed_thermal(1.2, 0.3, 0.7)
        m = cm.matrix.copy()
        m[1, 1] *= 1.0 + 1e-12  # within STS_FORM_RTOL
        m[1, 3] = m[3, 1] = m[1, 3] * (1.0 - 1e-12)
        nearly = TwoModeCovariance(m)
        assert renyi2_entanglement(nearly) == renyi2_entanglement(_floats(cm)) > 0.0

    def test_overflowing_g_is_not_separable(self):
        # g = inf - inf = nan used to fail the entangled-branch test: E2 = 0
        with pytest.raises(NonPhysicalState):
            renyi2_entanglement(TwoModeCovariance.squeezed_thermal(200.0, 0.1, 0.2))
        with pytest.raises(NonPhysicalState):
            renyi2_entanglement(StsColumns([1e200], [1e200], [0.9999e200]))
        with pytest.raises(NonPhysicalState):
            renyi2_entanglement(StsColumns(1e200, 1e200, 0.9999e200))
