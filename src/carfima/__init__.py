"""Continuous-time ARFIMA(p, H, q) processes over the full Hurst range.

Model representation, stationarity, autocovariance (closed form,
quadrature and CARMA routes), spectral densities, exact and state-space
simulation, and Whittle estimation from regularly sampled data.
"""

from types import ModuleType as _ModuleType

from .acf import (AcfTable, acf_carma, acf_closed_form, acf_integral_form,
                  acf_tail_asymptote, autocovariance, cov_y0_fbm, vstar)
from .errors import (CarfimaError, ConvergenceError, DomainError,
                     FactorizationFailureError, QuadratureError, RepeatedEigenvaluesError,
                     SingularLyapunovError, TailBoundTooLooseError)
from .estimate import FitResult, Periodogram, fit, periodogram
from .fgn import fbm_cov, fgn_autocovariance, simulate_fgn
from .model import (CarfimaModel, ModelParts, char_poly_eval, is_stationary,
                    mean_trajectory, prepare, stationary_mean)
from .simulate import (SamplePath, empirical_acf, exact_gaussian_paths, read_path_csv,
                       simulate_exact, simulate_state_euler)
from .spectrum import (SpectrumTable, fourier_consistency_check, spectral_density,
                       spectrum_table)

__version__ = "0.1.0"

# the names imported above; importing them also binds the submodules here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
