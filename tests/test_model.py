import cmath
import math

import pytest

from optosteer import (
    ArmParams,
    InvalidInput,
    PhysicalParams,
    ReducedParams,
    UnsupportedConfiguration,
    cooperativity,
    enhanced_coupling,
    groblacher_setup,
    mean_fields,
    reduce_params,
    regime_check,
    single_photon_coupling,
    thermal_occupation,
)
from optosteer.model import HBAR, KB


def make_setup(**overrides):
    base = dict(power1=5e-3, power2=11e-3, squeezing=1.0, nth1=0.5, nth2=1.0)
    base.update(overrides)
    return groblacher_setup(**base)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(0.0, 2 * math.pi * 947e3) == 0.0

    def test_unit_occupation_temperature(self):
        omega = 2 * math.pi * 947e3
        t_star = HBAR * omega / (KB * math.log(2.0))
        assert thermal_occupation(t_star, omega) == pytest.approx(1.0, abs=1e-12)

    def test_high_temperature_series(self):
        # at hbar*omega/(kB*T) = 0.1 the linear series is within 1% of exact
        omega = 2 * math.pi * 947e3
        temp = HBAR * omega / (KB * 0.1)
        exact = thermal_occupation(temp, omega)
        series = KB * temp / (HBAR * omega) - 0.5
        assert abs(exact - series) / exact < 0.01

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidInput):
            thermal_occupation(-1.0, 1.0)

    def test_extremes_of_the_double_range(self):
        # kB*T underflows to zero: as cold as T = 0
        assert thermal_occupation(5e-324, 2 * math.pi * 947e3) == 0.0
        # hbar*omega/(kB*T) underflows: the occupation is beyond a double
        with pytest.raises(InvalidInput, match="overflows"):
            thermal_occupation(1e300, 1e-300)


class TestMeanFields:
    def test_no_drive_gives_zero_amplitudes(self):
        p = make_setup(power1=0.0, power2=0.0)
        for field in mean_fields(p):
            assert field.cavity == 0j
            assert field.mirror == 0j

    def test_cavity_phase_locked_to_minus_pi_half(self):
        for field in mean_fields(make_setup()):
            assert abs(field.cavity) > 0.0
            assert cmath.phase(field.cavity) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_amplitude_scales_as_sqrt_power(self):
        a1 = abs(mean_fields(make_setup(power1=5e-3))[0].cavity)
        a2 = abs(mean_fields(make_setup(power1=10e-3))[0].cavity)
        assert a2 / a1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_strongly_driven(self):
        # the linearization assumes |a_s| >> 1
        assert abs(mean_fields(make_setup())[0].cavity) > 1e3


class TestEnhancedCoupling:
    def test_zero_power_means_zero_coupling(self):
        assert enhanced_coupling(make_setup(power1=0.0), 1) == 0.0

    def test_weak_coupling_at_reference_power(self):
        p = make_setup()
        assert p.arm1.kappa / enhanced_coupling(p, 1) > 10.0

    def test_agrees_with_mean_field_route(self):
        p = make_setup()
        fields = mean_fields(p)
        for j in (1, 2):
            direct = enhanced_coupling(p, j)
            via_field = single_photon_coupling(p.arm(j)) * abs(fields[j - 1].cavity)
            assert abs(direct - via_field) / direct < 1e-12


class TestCooperativity:
    def test_zero_power(self):
        assert cooperativity(make_setup(power1=0.0), 1) == 0.0

    def test_fully_expanded_expression(self):
        # independent evaluation straight from the laboratory numbers
        p = make_setup()
        for j in (1, 2):
            arm = p.arm(j)
            expanded = (
                8.0 * arm.omega_c**2 * arm.power
                / (arm.gamma * arm.mass * arm.omega_m * arm.omega_l * arm.length**2
                   * ((arm.kappa / 2.0) ** 2 + arm.omega_m**2))
            )
            assert cooperativity(p, j) == pytest.approx(expanded, rel=1e-12)

    def test_reference_power_lands_near_fifteen(self):
        assert cooperativity(make_setup(), 1) == pytest.approx(15.0, rel=0.15)

    def test_linear_in_power(self):
        c1 = cooperativity(make_setup(power1=5e-3), 1)
        c2 = cooperativity(make_setup(power1=10e-3), 1)
        assert c2 / c1 == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_joint_power_mass_scaling(self):
        p = make_setup()
        scaled = PhysicalParams(
            arm1=ArmParams(
                omega_c=p.arm1.omega_c, omega_l=p.arm1.omega_l,
                length=p.arm1.length, kappa=p.arm1.kappa,
                power=3.0 * p.arm1.power, mass=3.0 * p.arm1.mass,
                omega_m=p.arm1.omega_m, gamma=p.arm1.gamma, n_th=p.arm1.n_th,
            ),
            arm2=p.arm2,
            squeezing=p.squeezing,
        )
        assert cooperativity(scaled, 1) == pytest.approx(
            cooperativity(p, 1), rel=1e-12
        )


class TestReduce:
    def test_squeezing_moments(self):
        rp = reduce_params(make_setup(squeezing=0.0))
        assert rp.N == 0.0 and rp.M == 0.0
        rp = reduce_params(make_setup(squeezing=1.0))
        assert rp.N == pytest.approx(math.sinh(1.0) ** 2, rel=1e-12)
        assert rp.M == pytest.approx(0.5 * math.sinh(2.0), rel=1e-12)

    def test_moment_identity(self):
        for r in (0.0, 0.1, 0.7, 1.3, 2.4):
            rp = ReducedParams(c1=1, c2=1, nth1=0, nth2=0, r=r, gamma=1.0)
            assert rp.M**2 == pytest.approx(rp.N * (rp.N + 1.0), rel=1e-12, abs=1e-15)

    def test_rates_are_definitional(self):
        rp = ReducedParams(c1=15.0, c2=35.0, nth1=0.5, nth2=1.0, r=1.0,
                           gamma=2 * math.pi * 140.0)
        assert rp.gamma_a1 == 15.0 * rp.gamma
        assert rp.gamma_tot1 == pytest.approx(16.0 * rp.gamma, rel=1e-15)
        assert rp.gamma_a2 == 35.0 * rp.gamma
        assert rp.gamma_tot2 == pytest.approx(36.0 * rp.gamma, rel=1e-15)

    def test_deterministic_and_total(self):
        p = make_setup()
        assert reduce_params(p) == reduce_params(p)

    def test_unequal_damping_rejected(self):
        p = make_setup()
        odd_arm = ArmParams(
            omega_c=p.arm2.omega_c, omega_l=p.arm2.omega_l, length=p.arm2.length,
            kappa=p.arm2.kappa, power=p.arm2.power, mass=p.arm2.mass,
            omega_m=p.arm2.omega_m, gamma=2.0 * p.arm2.gamma, n_th=p.arm2.n_th,
        )
        lopsided = PhysicalParams(arm1=p.arm1, arm2=odd_arm, squeezing=1.0)
        with pytest.raises(UnsupportedConfiguration):
            reduce_params(lopsided)


class TestValidation:
    def test_negative_quantities_rejected(self):
        with pytest.raises(InvalidInput):
            ArmParams(omega_c=1.0, omega_l=1.0, length=1.0, kappa=1.0,
                      power=1.0, mass=-1.0, omega_m=1.0, gamma=1.0, n_th=0.0)

    @pytest.mark.parametrize("field", ["n_th", "temperature"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_occupation_rejected(self, field, value):
        with pytest.raises(InvalidInput, match=f"{field} must be finite"):
            ArmParams(omega_c=1.0, omega_l=1.0, length=1.0, kappa=1.0, power=1.0,
                      mass=1.0, omega_m=1.0, gamma=1.0, **{field: value})

    def test_squeezing_whose_noise_moment_overflows_rejected(self):
        # N = sinh(r)**2 overflows a double past r ~ 355.4
        assert math.isfinite(ReducedParams(1.0, 1.0, 0.0, 0.0, 355.0, 1.0).N)
        with pytest.raises(InvalidInput, match="r is too large"):
            ReducedParams(1.0, 1.0, 0.0, 0.0, 400.0, 1.0)
        with pytest.raises(InvalidInput, match="squeezing is too large"):
            make_setup(squeezing=400.0)

    def test_occupation_source_required(self):
        with pytest.raises(InvalidInput):
            ArmParams(omega_c=1.0, omega_l=1.0, length=1.0, kappa=1.0,
                      power=1.0, mass=1.0, omega_m=1.0, gamma=1.0)

    def test_consistent_double_occupation_accepted(self):
        omega = 2 * math.pi * 947e3
        t_star = HBAR * omega / (KB * math.log(2.0))
        arm = ArmParams(omega_c=1.0, omega_l=1.0, length=1.0, kappa=1.0,
                        power=1.0, mass=1.0, omega_m=omega, gamma=1.0,
                        temperature=t_star, n_th=1.0)
        assert arm.occupation() == 1.0

    def test_inconsistent_double_occupation_rejected(self):
        omega = 2 * math.pi * 947e3
        t_star = HBAR * omega / (KB * math.log(2.0))
        with pytest.raises(InvalidInput):
            ArmParams(omega_c=1.0, omega_l=1.0, length=1.0, kappa=1.0,
                      power=1.0, mass=1.0, omega_m=omega, gamma=1.0,
                      temperature=t_star, n_th=1.5)

    def test_mechanical_frequencies_must_match(self):
        p = make_setup()
        detuned = ArmParams(
            omega_c=p.arm2.omega_c, omega_l=p.arm2.omega_l, length=p.arm2.length,
            kappa=p.arm2.kappa, power=p.arm2.power, mass=p.arm2.mass,
            omega_m=1.5 * p.arm2.omega_m, gamma=p.arm2.gamma, n_th=p.arm2.n_th,
        )
        with pytest.raises(InvalidInput):
            PhysicalParams(arm1=p.arm1, arm2=detuned, squeezing=1.0)


class TestRegimeCheck:
    def test_reference_setup_passes_at_relaxed_threshold(self):
        report = regime_check(make_setup(), threshold=4.0)
        assert report.all_pass
        sideband = next(
            e for e in report.entries if e.name == "sideband_resolution_1"
        )
        assert sideband.ratio == pytest.approx(947.0 / 215.0, rel=1e-12)

    def test_reference_setup_warns_at_default_threshold(self):
        report = regime_check(make_setup())
        assert report.overall == "warn"
        sideband = next(
            e for e in report.entries if e.name == "sideband_resolution_1"
        )
        assert sideband.status == "warn"

    def test_unresolved_sideband_fails(self):
        p = make_setup()
        arm = lambda a: ArmParams(
            omega_c=a.omega_c, omega_l=a.omega_l, length=a.length,
            kappa=a.omega_m, power=a.power, mass=a.mass,
            omega_m=a.omega_m, gamma=a.gamma, n_th=a.n_th,
        )
        squashed = PhysicalParams(arm1=arm(p.arm1), arm2=arm(p.arm2), squeezing=1.0)
        report = regime_check(squashed)
        assert any(
            e.name.startswith("sideband") and e.status == "fail"
            for e in report.entries
        )

    def test_strong_coupling_fails_weak_coupling_flag(self):
        p = make_setup()
        a = p.arm1
        # power that makes the enhanced coupling equal to kappa
        power = (
            a.kappa**2 * a.mass * a.omega_m * a.omega_l
            * ((a.kappa / 2.0) ** 2 + a.omega_m**2)
            * a.length**2 / (2.0 * a.kappa * a.omega_c**2)
        )
        loud = ArmParams(
            omega_c=a.omega_c, omega_l=a.omega_l, length=a.length, kappa=a.kappa,
            power=power, mass=a.mass, omega_m=a.omega_m, gamma=a.gamma, n_th=a.n_th,
        )
        hot = PhysicalParams(arm1=loud, arm2=p.arm2, squeezing=1.0)
        assert enhanced_coupling(hot, 1) == pytest.approx(a.kappa, rel=1e-12)
        report = regime_check(hot)
        entry = next(e for e in report.entries if e.name == "weak_coupling_1")
        assert entry.status == "fail"
