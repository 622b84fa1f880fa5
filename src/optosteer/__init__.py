"""Dynamical Gaussian quantum steering of two mechanical modes.

Simulates the time-dependent covariance matrix of the movable mirrors of two
optomechanical cavities driven on the red sideband and fed by broadband
two-mode squeezed light, and computes the Gaussian steering measures in both
directions, the steering asymmetry and the Gaussian Renyi-2 entanglement
along the trajectory.
"""

from .dynamics import (
    CovarianceTrajectory,
    DriftDiffusion,
    build_drift_diffusion,
    covariance_closed_form,
    covariance_ode,
    stationary_covariance,
)
from .errors import (
    ConfigError,
    IntegrationError,
    InvalidInput,
    NonPhysicalState,
    OptosteerError,
    UnsupportedConfiguration,
    UnsupportedForm,
)
from .gaussian import (
    CmValidity,
    SteeringClass,
    StsColumns,
    TwoModeCovariance,
    classify_steering,
    renyi2_entanglement,
    steering_a_to_b,
    steering_asymmetry,
    steering_b_to_a,
    swap_modes,
    symplectic_eigenvalues,
    validate_cm,
)
from .model import (
    ArmParams,
    PhysicalParams,
    ReducedParams,
    RegimeReport,
    cooperativity,
    enhanced_coupling,
    groblacher_setup,
    mean_fields,
    reduce_params,
    regime_check,
    single_photon_coupling,
    thermal_occupation,
)
from .scenario import (
    PANEL_PARAMS,
    MeasureSample,
    SteeringWindow,
    TimeSweep,
    detect_birth,
    evaluate_measures,
    figure_panels,
    steering_windows,
    sweep_time,
)

__version__ = "0.1.0"

__all__ = [
    "ArmParams",
    "CmValidity",
    "ConfigError",
    "CovarianceTrajectory",
    "DriftDiffusion",
    "IntegrationError",
    "InvalidInput",
    "MeasureSample",
    "NonPhysicalState",
    "OptosteerError",
    "PANEL_PARAMS",
    "PhysicalParams",
    "ReducedParams",
    "RegimeReport",
    "SteeringClass",
    "SteeringWindow",
    "StsColumns",
    "TimeSweep",
    "TwoModeCovariance",
    "UnsupportedConfiguration",
    "UnsupportedForm",
    "build_drift_diffusion",
    "classify_steering",
    "cooperativity",
    "covariance_closed_form",
    "covariance_ode",
    "detect_birth",
    "enhanced_coupling",
    "evaluate_measures",
    "figure_panels",
    "groblacher_setup",
    "mean_fields",
    "reduce_params",
    "regime_check",
    "renyi2_entanglement",
    "single_photon_coupling",
    "stationary_covariance",
    "steering_a_to_b",
    "steering_asymmetry",
    "steering_b_to_a",
    "steering_windows",
    "swap_modes",
    "sweep_time",
    "symplectic_eigenvalues",
    "thermal_occupation",
    "validate_cm",
    "__version__",
]
