"""Spectral density of the process and of its regularly sampled skeleton.

The continuous-time density is a closed form; the sampled process has the
folded (aliased) density, an infinite sum truncated here with a rigorous
power-law bracket on the remainder.  A cosine-transform oracle checks the
spectral density against the autocovariance routes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .acf import acf_carma, acf_closed_form
from .errors import DomainError, QuadratureError, TailBoundTooLooseError
from .model import CarfimaModel, ModelParts, prepare

DEFAULT_ALIAS_K = 64
DEFAULT_BRACKET_RTOL = 1e-2


@dataclass(frozen=True)
class SpectrumTable:
    """Spectral density values on a frequency grid."""

    omegas: np.ndarray
    values: np.ndarray
    kind: str  # continuous | aliased
    step_h: float | None = None
    truncation_K: int | None = None

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise DomainError("omegas and values must be 1-d arrays of equal length")
        if np.any(values < 0):
            raise DomainError("spectral density values must be nonnegative")
        if self.kind not in ("continuous", "aliased"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "aliased" and (self.step_h is None or self.step_h <= 0):
            raise DomainError("aliased spectra need a positive step_h")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        omegas.setflags(write=False)
        values.setflags(write=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["omega", "f", "kind", "h", "K"])
            h = "" if self.step_h is None else repr(float(self.step_h))
            k = "" if self.truncation_K is None else str(self.truncation_K)
            for om, val in zip(self.omegas, self.values):
                w.writerow([repr(float(om)), repr(float(val)), self.kind, h, k])


def _poly_ratio_sq(model: CarfimaModel, w):
    """|beta(i w)|^2 / |alpha(i w)|^2, vectorized over w."""
    iw = 1j * np.asarray(w, dtype=float)
    a_coeffs = np.array([1.0] + [-a for a in model.alpha[:0:-1]])
    b_coeffs = np.array(list(reversed((1.0,) + model.beta)))
    num = np.abs(np.polyval(b_coeffs, iw)) ** 2
    den = np.abs(np.polyval(a_coeffs, iw)) ** 2
    return num / den


def _front_constant(model: CarfimaModel) -> float:
    """sigma^2 Gamma(2H+1) sin(pi H) / (2 pi)."""
    H = model.H
    return model.sigma**2 * gamma_fn(2 * H + 1) * math.sin(math.pi * H) / (2 * math.pi)


def spectral_density(model: CarfimaModel, omega, parts: ModelParts | None = None):
    """Spectral density f_Y(omega) of the continuous-time process.

    At omega = 0 the density is 0 for H < 1/2, the classical CARMA value
    for H = 1/2, and a genuine singularity for H > 1/2 reported as inf.
    Accepts scalars or arrays.
    """
    parts = parts or prepare(model)
    if not parts.stationary:
        raise DomainError("spectral density requires a stationary model")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    c = _front_constant(model)
    out = np.empty_like(w)
    nz = w != 0
    out[nz] = c * np.abs(w[nz]) ** (1.0 - 2.0 * model.H) * _poly_ratio_sq(model, w[nz])
    if np.any(~nz):
        if model.H < 0.5:
            at0 = 0.0
        elif model.H == 0.5:
            at0 = model.sigma**2 / (2 * math.pi * model.alpha[1] ** 2)
        else:
            at0 = math.inf
        out[~nz] = at0
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class AliasedValue:
    """Aliased density with the bracket on the truncated tail."""

    value: float
    tail_lo: float
    tail_hi: float

    @property
    def bracket_width(self) -> float:
        return self.tail_hi - self.tail_lo


def _tail_ratio_bounds(model: CarfimaModel, w_min: float) -> tuple[float, float]:
    """Bounds on |beta/alpha|^2 * w^{2(p-q)} over w >= w_min."""
    grid = np.geomspace(w_min, 1e4 * w_min, 256)
    vals = _poly_ratio_sq(model, grid) * grid ** (2 * (model.p - model.q))
    lead = (model.beta[-1] if model.q >= 1 else 1.0) ** 2
    hi = max(float(np.max(vals)), lead) * (1 + 1e-3)
    lo = min(float(np.min(vals)), lead) * (1 - 1e-3)
    return lo, hi


def _aliased_core(model: CarfimaModel, omegas: np.ndarray, step_h: float, K: int):
    """Truncated alias sum plus tail bracket, vectorized over omegas."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if step_h <= 0:
        raise DomainError(f"step_h must be positive, got {step_h}")
    h = step_h
    H = model.H
    ks = np.arange(-K, K + 1)
    W = (omegas[:, None] + 2 * math.pi * ks[None, :]) / h
    c = _front_constant(model)
    with np.errstate(divide="ignore"):
        fvals = c * np.abs(W) ** (1.0 - 2.0 * H) * _poly_ratio_sq(model, W)
    if H > 0.5:
        fvals[W == 0] = math.inf
    else:
        fvals[W == 0] = 0.0 if H < 0.5 else model.sigma**2 / (2 * math.pi * model.alpha[1] ** 2)
    trunc = fvals.sum(axis=1) / h
    # remainder: |k| > K aliases lie beyond w_min; f_Y there is pinched
    # between two power laws C * w^nu with nu = 1-2H-2(p-q) < -1
    nu = 1.0 - 2.0 * H - 2.0 * (model.p - model.q)
    w_min = (2 * math.pi * (K + 1) - math.pi) / h
    r_lo, r_hi = _tail_ratio_bounds(model, w_min)
    c_hi = c * r_hi
    c_lo = c * r_lo
    w_hi = (2 * math.pi * K - math.pi) / h  # integral bound from x = K
    w_lo = (2 * math.pi * (K + 1) + math.pi) / h  # from x = K + 1
    tail_hi = 2 * c_hi / (2 * math.pi) * w_hi ** (nu + 1.0) / (-nu - 1.0)
    tail_lo = 2 * c_lo / (2 * math.pi) * w_lo ** (nu + 1.0) / (-nu - 1.0)
    return trunc, tail_lo, tail_hi


def aliased_spectrum_detail(
    model: CarfimaModel,
    omega: float,
    step_h: float,
    K: int = DEFAULT_ALIAS_K,
    bracket_rtol: float = DEFAULT_BRACKET_RTOL,
    parts: ModelParts | None = None,
) -> AliasedValue:
    """Aliased density at one frequency with the tail bracket exposed."""
    parts = parts or prepare(model)
    if not parts.stationary:
        raise DomainError("aliased spectrum requires a stationary model")
    if not -math.pi <= omega <= math.pi:
        raise DomainError(f"omega must lie in [-pi, pi], got {omega}")
    trunc, tail_lo, tail_hi = _aliased_core(model, np.array([float(omega)]), step_h, K)
    value = float(trunc[0]) + 0.5 * (tail_lo + tail_hi)
    _check_bracket(np.array([value]), tail_hi - tail_lo, bracket_rtol)
    return AliasedValue(value=value, tail_lo=tail_lo, tail_hi=tail_hi)


def _check_bracket(values: np.ndarray, width: float, rtol: float) -> None:
    """Raise if the tail bracket exceeds rtol of any finite aliased value."""
    loose = np.isfinite(values) & (width > rtol * np.abs(values))
    if np.any(loose):
        value = float(values[np.argmax(loose)])
        raise TailBoundTooLooseError(
            f"tail bracket width {width:.3e} exceeds {rtol:.1e} of value {value:.6e}"
        )


def aliased_spectrum(
    model: CarfimaModel,
    omega: float,
    step_h: float,
    K: int = DEFAULT_ALIAS_K,
    bracket_rtol: float = DEFAULT_BRACKET_RTOL,
    parts: ModelParts | None = None,
) -> float:
    """Spectral density of the h-sampled process at omega in [-pi, pi]."""
    return aliased_spectrum_detail(model, omega, step_h, K, bracket_rtol, parts).value


def spectrum_table(
    model: CarfimaModel,
    omegas,
    kind: str = "continuous",
    step_h: float | None = None,
    K: int = DEFAULT_ALIAS_K,
    parts: ModelParts | None = None,
) -> SpectrumTable:
    """Tabulate f_Y or the aliased f_h on a frequency grid."""
    parts = parts or prepare(model)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if kind == "continuous":
        values = spectral_density(model, omegas, parts)
        return SpectrumTable(omegas=omegas, values=values, kind=kind)
    if kind != "aliased":
        raise DomainError(f"unknown spectrum kind {kind!r}")
    if step_h is None:
        raise DomainError("aliased spectra need step_h")
    trunc, tail_lo, tail_hi = _aliased_core(model, omegas, step_h, K)
    values = trunc + 0.5 * (tail_lo + tail_hi)
    _check_bracket(values, tail_hi - tail_lo, DEFAULT_BRACKET_RTOL)
    return SpectrumTable(omegas=omegas, values=values, kind=kind, step_h=step_h,
                         truncation_K=K)


def fourier_consistency_check(
    model: CarfimaModel,
    lag_grid=(0.0, 1.0, 5.0),
    tolerance: float = 1e-4,
    parts: ModelParts | None = None,
) -> dict:
    """Cosine transform of the spectral density versus the ACF routes.

    gamma_hat(h) = 2 int_0^inf f_Y(w) cos(w h) dw, split at w = 1: the
    origin piece is smoothed by the substitution w = v^{1/(2-2H)} (which
    absorbs the |w|^{1-2H} factor exactly), the tail piece goes to QUADPACK's
    Fourier integrator.  Returns a report with the max relative deviation.
    """
    parts = parts or prepare(model)
    if not parts.stationary:
        raise DomainError("fourier consistency requires a stationary model")
    H = model.H
    c = _front_constant(model)
    kappa = 1.0 / (2.0 - 2.0 * H)
    split = 1.0

    def gamma_hat(h: float) -> float:
        def low(v):
            w = v**kappa
            return _poly_ratio_sq(model, w) * math.cos(w * h)

        i_low, e_low = quad(low, 0.0, split ** (1.0 / kappa), epsabs=1e-13,
                            epsrel=1e-11, limit=400)
        i_low *= c * kappa

        def high(w):
            return c * w ** (1.0 - 2.0 * H) * _poly_ratio_sq(model, w)

        if h > 0:
            i_high, e_high = quad(high, split, np.inf, weight="cos", wvar=h,
                                  epsabs=1e-12, limlst=200, limit=400)
        else:
            i_high, e_high = quad(high, split, np.inf, epsabs=1e-13, epsrel=1e-11,
                                  limit=400)
        if e_low + e_high > 1e-5:
            raise QuadratureError(
                f"fourier transform error estimate {e_low + e_high:.3e} at h={h}"
            )
        return 2.0 * (i_low + i_high)

    lags = [float(h) for h in lag_grid]
    if model.H == 0.5:
        reference = [acf_carma(model, h, parts) for h in lags]
    else:
        reference = [acf_closed_form(model, h, parts) for h in lags]
    transformed = [gamma_hat(h) for h in lags]
    scale = max(abs(g) for g in reference)
    devs = [abs(a - b) / max(abs(b), 1e-6 * scale) for a, b in zip(transformed, reference)]
    max_dev = max(devs)
    return {
        "lags": lags,
        "acf": reference,
        "fourier": transformed,
        "deviations": devs,
        "max_rel_dev": max_dev,
        "tolerance": tolerance,
        "passed": bool(max_dev < tolerance),
    }
