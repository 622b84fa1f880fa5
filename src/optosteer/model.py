"""Laboratory-to-model parameter reduction for two driven optomechanical cavities.

Maps cavity/mirror/laser/environment numbers (SI units, angular frequencies in
rad/s) to the six dimensionless inputs of the covariance dynamics: two
cooperativities, two thermal occupations, the squeezing parameter and the
mechanical damping rate.  Also checks the regime the reduction relies on:
resolved sideband (omega_m >> kappa), weak coupling (kappa >> G, gamma) and
high mechanical quality factor.

Both drives are locked to the red sideband, effective detuning = -omega_m;
other detunings are rejected rather than silently mis-modeled, because every
closed form downstream assumes this working point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInput, UnsupportedConfiguration

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

# Relative tolerance when a bath temperature and a direct occupation are both
# supplied: they must describe the same bath.
NTH_CONSISTENCY_RTOL = 1e-6


def thermal_occupation(temperature, omega_m) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega_m/(kB*T)) - 1); 0 at T = 0."""
    if omega_m <= 0.0:
        raise InvalidInput("mechanical frequency must be positive")
    if temperature < 0.0:
        raise InvalidInput("temperature must be >= 0")
    kt = KB * temperature
    if kt == 0.0:  # T = 0, or kB*T below the smallest double
        return 0.0
    x = HBAR * omega_m / kt
    if x > 700.0:  # exp overflow; occupation underflows to zero anyway
        return 0.0
    if x < 1e-300:  # 1/(e^x - 1) beyond 1e300, at the edge of overflow
        raise InvalidInput("temperature too high for the mechanical frequency: "
                           "the thermal occupation overflows")
    return 1.0 / math.expm1(x)


def _check_squeezing(name, r):
    """A squeezing parameter must be >= 0 with sinh(r)**2 (the noise moment
    N) finite."""
    if not 0.0 <= r < math.inf:
        raise InvalidInput(f"{name} must be >= 0 and finite")
    try:
        math.sinh(r) ** 2
    except OverflowError:
        raise InvalidInput(f"{name} is too large: sinh({name})**2 overflows") from None


@dataclass(frozen=True)
class ArmParams:
    """One cavity and its movable mirror.

    Angular frequencies and rates in rad/s, length in m, mass in kg, laser
    power in W.  Exactly one of (temperature, n_th) may be omitted; if both
    are given they must agree.
    """

    omega_c: float  # cavity resonance
    omega_l: float  # drive laser
    length: float
    kappa: float  # cavity energy decay rate
    power: float
    mass: float
    omega_m: float  # mechanical resonance
    gamma: float  # mechanical damping
    temperature: float | None = None
    n_th: float | None = None

    def __post_init__(self):
        positives = {
            "omega_c": self.omega_c,
            "omega_l": self.omega_l,
            "length": self.length,
            "kappa": self.kappa,
            "mass": self.mass,
            "omega_m": self.omega_m,
            "gamma": self.gamma,
        }
        for name, value in positives.items():
            if not (value > 0.0) or not math.isfinite(value):
                raise InvalidInput(f"{name} must be positive and finite")
        if self.power < 0.0 or not math.isfinite(self.power):
            raise InvalidInput("power must be >= 0 and finite")
        if self.temperature is None and self.n_th is None:
            raise InvalidInput("one of temperature or n_th is required")
        for name in ("temperature", "n_th"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise InvalidInput(f"{name} must be >= 0")
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite")
        if self.temperature is not None and self.n_th is not None:
            derived = thermal_occupation(self.temperature, self.omega_m)
            scale = max(abs(self.n_th), abs(derived))
            if scale > 0.0 and abs(self.n_th - derived) > NTH_CONSISTENCY_RTOL * scale:
                raise InvalidInput(
                    f"n_th = {self.n_th:.6g} disagrees with the value "
                    f"{derived:.6g} derived from temperature"
                )

    def occupation(self) -> float:
        """Thermal occupation, direct if given, else from the bath temperature."""
        if self.n_th is not None:
            return self.n_th
        return thermal_occupation(self.temperature, self.omega_m)


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory parameters of the double-cavity setup plus input squeezing."""

    arm1: ArmParams
    arm2: ArmParams
    squeezing: float

    def __post_init__(self):
        _check_squeezing("squeezing", self.squeezing)
        w1, w2 = self.arm1.omega_m, self.arm2.omega_m
        if abs(w1 - w2) > 1e-12 * max(w1, w2):
            raise InvalidInput(
                "the two mechanical frequencies must be equal "
                "(the squeezed-input correlations assume a common sideband)"
            )

    def arm(self, j: int) -> ArmParams:
        if j == 1:
            return self.arm1
        if j == 2:
            return self.arm2
        raise InvalidInput("cavity index must be 1 or 2")


class MeanField(NamedTuple):
    cavity: complex  # steady-state cavity amplitude a_s
    mirror: complex  # steady-state mirror amplitude b_s


def single_photon_coupling(arm: ArmParams) -> float:
    """Bare optomechanical coupling g = (omega_c/length) sqrt(hbar/(m omega_m))."""
    return (arm.omega_c / arm.length) * math.sqrt(HBAR / (arm.mass * arm.omega_m))


def mean_fields(p: PhysicalParams) -> tuple[MeanField, MeanField]:
    """Classical steady-state amplitudes of both arms at the red sideband.

    a_s = -i eps e^{i phi} / (kappa/2 - i Delta') with the drive strength
    eps = sqrt(2 kappa P / (hbar omega_l)) and the laser phase fixed to
    phi = -arctan(2 Delta'/kappa), which makes a_s = -i|a_s| (phase -pi/2);
    b_s = -i g |a_s|^2 / (gamma/2 + i omega_m).
    """
    fields = []
    for arm in (p.arm1, p.arm2):
        if arm.power == 0.0:
            fields.append(MeanField(0j, 0j))
            continue
        detuning = -arm.omega_m
        eps = math.sqrt(2.0 * arm.kappa * arm.power / (HBAR * arm.omega_l))
        phi = -math.atan(2.0 * detuning / arm.kappa)
        a_s = -1j * eps * cmath.exp(1j * phi) / (arm.kappa / 2.0 - 1j * detuning)
        g = single_photon_coupling(arm)
        b_s = -1j * g * abs(a_s) ** 2 / (arm.gamma / 2.0 + 1j * arm.omega_m)
        fields.append(MeanField(a_s, b_s))
    return tuple(fields)


def enhanced_coupling(p: PhysicalParams, j: int) -> float:
    """Light-enhanced coupling G = g |a_s| of arm j, evaluated directly.

    G = (omega_c/length) sqrt(2 kappa P / (m omega_m omega_l
    [(kappa/2)^2 + Delta'^2])) at Delta' = -omega_m.
    """
    arm = p.arm(j)
    if arm.power == 0.0:
        return 0.0
    lorentz = (arm.kappa / 2.0) ** 2 + arm.omega_m**2
    return (arm.omega_c / arm.length) * math.sqrt(
        2.0 * arm.kappa * arm.power / (arm.mass * arm.omega_m * arm.omega_l * lorentz)
    )


def cooperativity(p: PhysicalParams, j: int) -> float:
    """Optomechanical cooperativity C = 4 G^2 / (gamma kappa) of arm j."""
    arm = p.arm(j)
    g_enh = enhanced_coupling(p, j)
    return 4.0 * g_enh**2 / (arm.gamma * arm.kappa)


@dataclass(frozen=True)
class ReducedParams:
    """The six dimensionless inputs driving the covariance dynamics.

    c1, c2: cooperativities; nth1, nth2: thermal occupations; r: squeezing;
    gamma: common mechanical damping in rad/s.  The squeezed-input noise
    moments N = sinh^2 r and M = sinh r cosh r satisfy M^2 = N(N+1).
    """

    c1: float
    c2: float
    nth1: float
    nth2: float
    r: float
    gamma: float

    def __post_init__(self):
        for name in ("c1", "c2", "nth1", "nth2"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise InvalidInput(f"{name} must be >= 0 and finite")
        _check_squeezing("r", self.r)
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise InvalidInput("gamma must be positive and finite")

    @property
    def N(self) -> float:
        return math.sinh(self.r) ** 2

    @property
    def M(self) -> float:
        return math.sinh(self.r) * math.cosh(self.r)

    @property
    def gamma_a1(self) -> float:
        """Radiation-pressure-induced relaxation rate of mirror 1."""
        return self.c1 * self.gamma

    @property
    def gamma_a2(self) -> float:
        return self.c2 * self.gamma

    @property
    def gamma_tot1(self) -> float:
        """Total relaxation rate of mirror 1."""
        return self.gamma_a1 + self.gamma

    @property
    def gamma_tot2(self) -> float:
        return self.gamma_a2 + self.gamma


def reduce_params(p: PhysicalParams) -> ReducedParams:
    """Assemble the reduced model inputs from laboratory parameters.

    Requires equal mechanical damping rates; the closed-form covariance
    solution is derived for identical damping.
    """
    g1, g2 = p.arm1.gamma, p.arm2.gamma
    if abs(g1 - g2) > 1e-12 * max(g1, g2):
        raise UnsupportedConfiguration(
            "the two mechanical damping rates must be equal"
        )
    return ReducedParams(
        c1=cooperativity(p, 1),
        c2=cooperativity(p, 2),
        nth1=p.arm1.occupation(),
        nth2=p.arm2.occupation(),
        r=p.squeezing,
        gamma=g1,
    )


@dataclass(frozen=True)
class RegimeEntry:
    name: str
    ratio: float
    status: str  # "pass" | "warn" | "fail"


@dataclass(frozen=True)
class RegimeReport:
    """Validity-regime report; overall status is the worst entry."""

    entries: tuple[RegimeEntry, ...]
    threshold: float
    warn_floor: float

    @property
    def overall(self) -> str:
        order = {"pass": 0, "warn": 1, "fail": 2}
        return max((e.status for e in self.entries), key=order.__getitem__)

    @property
    def all_pass(self) -> bool:
        return all(e.status == "pass" for e in self.entries)


def regime_check(p: PhysicalParams, threshold=5.0, warn_floor=2.0) -> RegimeReport:
    """Ratio checks behind the adiabatic single-mode reduction.

    Per arm: omega_m/kappa (sideband resolution), kappa/G (weak coupling),
    kappa/gamma (cavity much faster than the mirror decay) and the mechanical
    quality factor omega_m/gamma.  A ratio passes at >= threshold, warns in
    [warn_floor, threshold) and fails below warn_floor.
    """
    if not (0.0 < warn_floor <= threshold):
        raise InvalidInput("need 0 < warn_floor <= threshold")

    def status(ratio):
        if ratio >= threshold:
            return "pass"
        if ratio >= warn_floor:
            return "warn"
        return "fail"

    entries = []
    for j in (1, 2):
        arm = p.arm(j)
        g_enh = enhanced_coupling(p, j)
        ratios = {
            f"sideband_resolution_{j}": arm.omega_m / arm.kappa,
            f"weak_coupling_{j}": arm.kappa / g_enh if g_enh > 0.0 else math.inf,
            f"cavity_vs_mirror_decay_{j}": arm.kappa / arm.gamma,
            f"mechanical_quality_{j}": arm.omega_m / arm.gamma,
        }
        entries.extend(
            RegimeEntry(name, ratio, status(ratio)) for name, ratio in ratios.items()
        )
    return RegimeReport(tuple(entries), threshold, warn_floor)


def groblacher_setup(
    power1=5e-3,
    power2=11e-3,
    squeezing=1.0,
    nth1=0.5,
    nth2=1.0,
) -> PhysicalParams:
    """Double-cavity setup with Fabry-Perot numbers from the Groblacher et al.
    micromirror experiment (Nature 460, 724 (2009)).

    At the default 5 mW / 11 mW drives this gives cooperativities of about
    14.5 and 31.9 with kappa/G > 10, inside the weak-coupling window the
    reduction needs.  The mirror mass is an effective value chosen for that
    operating point; the often-quoted 145 ng would push the cooperativities
    three orders of magnitude up and break kappa >> G.
    """
    common = dict(
        omega_c=2.0 * math.pi * 5.26e14,
        omega_l=2.0 * math.pi * 2.82e14,
        length=25e-3,
        kappa=2.0 * math.pi * 215e3,
        mass=1.45e-7,
        omega_m=2.0 * math.pi * 947e3,
        gamma=2.0 * math.pi * 140.0,
    )
    return PhysicalParams(
        arm1=ArmParams(power=power1, n_th=nth1, **common),
        arm2=ArmParams(power=power2, n_th=nth2, **common),
        squeezing=squeezing,
    )
