"""Continuous-time ARFIMA(p, H, q) processes over the full Hurst range.

Model representation, stationarity, autocovariance (closed form,
quadrature and CARMA routes), spectral densities, exact and state-space
simulation, and Whittle estimation from regularly sampled data.
"""

from .acf import (
    AcfTable,
    StationaryStateCov,
    acf_carma,
    acf_closed_form,
    acf_integral_form,
    acf_tail_asymptote,
    autocovariance,
    cov_y0_fbm,
    vstar,
)
from .errors import (
    CarfimaError,
    ConvergenceError,
    DomainError,
    FactorizationFailureError,
    QuadratureError,
    RepeatedEigenvaluesError,
    SingularLyapunovError,
    TailBoundTooLooseError,
)
from .estimate import (
    FitResult,
    Periodogram,
    fit,
    periodogram,
    profile_sigma2,
    whittle_objective,
)
from .fgn import (
    fbm_cov,
    fgn_autocovariance,
    simulate_fgn,
)
from .model import (
    CarfimaModel,
    CompanionSystem,
    EigenStructure,
    ModelParts,
    build_companion,
    char_poly_eval,
    eigen_structure,
    is_stationary,
    mean_trajectory,
    prepare,
    stationary_mean,
)
from .simulate import (
    SamplePath,
    empirical_acf,
    exact_gaussian_paths,
    read_path_csv,
    simulate_exact,
    simulate_state_euler,
)
from .spectrum import (
    AliasedValue,
    SpectrumTable,
    aliased_spectrum,
    aliased_spectrum_detail,
    fourier_consistency_check,
    spectral_density,
    spectrum_table,
)

__version__ = "0.1.0"

__all__ = [
    "AcfTable",
    "AliasedValue",
    "CarfimaError",
    "CarfimaModel",
    "CompanionSystem",
    "ConvergenceError",
    "DomainError",
    "EigenStructure",
    "FactorizationFailureError",
    "FitResult",
    "ModelParts",
    "Periodogram",
    "QuadratureError",
    "RepeatedEigenvaluesError",
    "SamplePath",
    "SingularLyapunovError",
    "SpectrumTable",
    "StationaryStateCov",
    "TailBoundTooLooseError",
    "acf_carma",
    "acf_closed_form",
    "acf_integral_form",
    "acf_tail_asymptote",
    "aliased_spectrum",
    "aliased_spectrum_detail",
    "autocovariance",
    "build_companion",
    "char_poly_eval",
    "cov_y0_fbm",
    "eigen_structure",
    "empirical_acf",
    "exact_gaussian_paths",
    "fbm_cov",
    "fgn_autocovariance",
    "fit",
    "fourier_consistency_check",
    "is_stationary",
    "mean_trajectory",
    "periodogram",
    "prepare",
    "profile_sigma2",
    "read_path_csv",
    "simulate_exact",
    "simulate_fgn",
    "simulate_state_euler",
    "spectral_density",
    "spectrum_table",
    "stationary_mean",
    "vstar",
    "whittle_objective",
]
