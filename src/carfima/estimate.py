"""Whittle-type frequency-domain estimation from a regularly sampled path.

The periodogram at the Fourier frequencies is matched against the aliased
model spectrum; the innovation scale enters multiplicatively, so sigma^2 is
profiled out in closed form and the simplex search runs over the shape
parameters (AR and MA coefficients and the Hurst exponent) only.  H = 1/2
is excluded from the search domain: the fit explores both sides of the
gap through its multi-starts.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError
from .model import CarfimaModel, beta_poly_coeffs, prepare
from .simulate import SamplePath
from .spectrum import DEFAULT_ALIAS_K, _AliasSum

H_MIN = 0.01
H_MAX = 0.99
H_GAP = 0.005  # half-width of the excluded band around H = 1/2


@dataclass(frozen=True)
class Periodogram:
    """Mean-removed periodogram at the positive Fourier frequencies."""

    omegas: np.ndarray
    values: np.ndarray
    n: int
    step_h: float

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise DomainError("omegas and values must be 1-d arrays of equal length")
        if np.any(values < 0):
            raise DomainError("periodogram values must be nonnegative")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        omegas.setflags(write=False)
        values.setflags(write=False)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Whittle fit."""

    model_hat: CarfimaModel
    objective_value: float
    converged: bool
    iterations: int
    stationarity_ok: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model_hat.to_dict(),
                "objective": self.objective_value,
                "converged": self.converged,
                "iterations": self.iterations,
            }
        )


def periodogram(path: SamplePath) -> Periodogram:
    """I(w_j) = |sum (y_k - ybar) e^{-i w_j k}|^2 / (2 pi n), j = 1..(n-1)//2.

    The full-grid sum is checked against the sample variance (Parseval)
    at construction.
    """
    y = path.values
    n = len(y)
    if n < 16:
        raise DomainError(f"periodogram needs n >= 16, got {n}")
    x = y - y.mean()
    coefs = np.fft.fft(x)
    full = np.abs(coefs) ** 2 / (2 * math.pi * n)
    var = float(np.mean(x**2))
    parseval = float(full.sum()) * 2 * math.pi / n
    if var > 0 and abs(parseval - var) > 1e-8 * var:
        raise DomainError("periodogram failed the Parseval identity check")
    m = (n - 1) // 2
    js = np.arange(1, m + 1)
    return Periodogram(omegas=2 * math.pi * js / n, values=full[1 : m + 1],
                       n=n, step_h=path.step_h)


def whittle_objective(pg: Periodogram, model: CarfimaModel,
                      K: int = DEFAULT_ALIAS_K) -> float:
    """sum_j [log f_h(w_j) + I(w_j)/f_h(w_j)] over the half grid."""
    f, _, _ = _AliasSum(pg.omegas, pg.step_h, K)(model)
    return float(np.sum(np.log(f) + pg.values / f))


def profile_sigma2(pg: Periodogram, model: CarfimaModel,
                   K: int = DEFAULT_ALIAS_K) -> float:
    """Closed-form minimizer of the objective over sigma^2 at fixed shape."""
    f, _, _ = _AliasSum(pg.omegas, pg.step_h, K)(model)
    return model.sigma**2 * float(np.mean(pg.values / f))


def h_to_logit(H: float, side: str) -> float:
    lo, hi = _h_bounds(side)
    if not lo < H < hi:
        raise DomainError(f"H={H} outside the {side} side ({lo}, {hi})")
    u = (H - lo) / (hi - lo)
    return math.log(u / (1.0 - u))


def logit_to_h(x: float, side: str) -> float:
    lo, hi = _h_bounds(side)
    # exp(-x) overflows below x = -709.78, where the logistic is already
    # below 1e-308 and lo + (hi - lo) * it rounds to lo
    return lo + (hi - lo) / (1.0 + math.exp(min(-x, 709.0)))


def _h_bounds(side: str) -> tuple[float, float]:
    if side == "low":
        return H_MIN, 0.5 - H_GAP
    if side == "high":
        return 0.5 + H_GAP, H_MAX
    raise DomainError(f"unknown H side {side!r}")


def _default_start(p: int, q: int, step_h: float) -> tuple[np.ndarray, np.ndarray]:
    lambdas = -np.linspace(0.4, 1.2, p) / step_h
    poly = np.poly(lambdas)  # monic, highest first
    alpha_ar = -poly[:0:-1]  # alpha_1..alpha_p
    beta = np.full(q, 0.1)
    return alpha_ar, beta


def fit(
    path: SamplePath,
    p: int,
    q: int,
    init: CarfimaModel | None = None,
    seed: int = 0,
    n_starts: int = 8,
    K: int = DEFAULT_ALIAS_K,
) -> FitResult:
    """Whittle fit of a CARFIMA(p, H, q) model to a sampled path.

    Derivative-free simplex over (alpha_1..alpha_p, beta_1..beta_q,
    logit H), sigma^2 profiled out analytically at every step.  Iterates
    with any companion eigenvalue in the closed right half-plane score
    +inf.  Multi-starts alternate between the two H half-ranges; the best
    final objective wins, ties broken by start index.
    """
    if p < 1 or not 0 <= q < p:
        raise DomainError("need p >= 1 and 0 <= q < p")
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    pg = periodogram(path)
    if not np.any(pg.values):
        raise DomainError("cannot fit a constant path: its periodogram is zero")
    alias = _AliasSum(pg.omegas, pg.step_h, K)
    m = len(pg.values)
    ivals = pg.values

    def objective(theta, side):
        alpha_ar = theta[:p]
        beta = theta[p : p + q]
        H = logit_to_h(theta[-1], side)
        try:
            model = CarfimaModel(p=p, q=q, alpha=(0.0, *alpha_ar), beta=tuple(beta),
                                 H=H, sigma=1.0)
            f_shape, _, _ = alias(model)
        except DomainError:
            return math.inf
        if not np.all(np.isfinite(f_shape)) or np.any(f_shape <= 0):
            return math.inf
        s2 = float(np.mean(ivals / f_shape))
        return m * math.log(s2) + float(np.sum(np.log(f_shape))) + m

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if init is not None:
        base_ar = np.array(init.alpha[1:])
        base_beta = np.array(init.beta) if q >= 1 else np.zeros(0)
        base_h = init.H
    else:
        base_ar, base_beta = _default_start(p, q, path.step_h)
        base_h = None
    results = []
    total_iter = 0
    for start in range(n_starts):
        side = ("low", "high")[start % 2] if base_h is None else (
            "low" if base_h < 0.5 else "high")
        lo, hi = _h_bounds(side)
        h0 = base_h if base_h is not None else {"low": 0.3, "high": 0.7}[side]
        h0 = min(max(h0, lo + 1e-3), hi - 1e-3)
        theta0 = np.concatenate([
            base_ar * (1.0 + 0.3 * rng.standard_normal(p)),
            base_beta + 0.1 * rng.standard_normal(q),
            [h_to_logit(h0, side) + 0.5 * rng.standard_normal()],
        ])
        if start == 0:  # keep one undisturbed start
            theta0 = np.concatenate([base_ar, base_beta, [h_to_logit(h0, side)]])
        res = minimize(
            objective, theta0, args=(side,), method="Nelder-Mead",
            options={"maxiter": 500 * len(theta0), "fatol": 1e-8, "xatol": 1e-4},
        )
        total_iter += res.nit
        results.append((res.fun, start, side, res))
    best_fun, best_start, best_side, best = min(results, key=lambda r: (r[0], r[1]))
    theta = best.x
    H_hat = logit_to_h(theta[-1], best_side)
    shape = CarfimaModel(p=p, q=q, alpha=(0.0, *theta[:p]), beta=tuple(theta[p : p + q]),
                         H=H_hat, sigma=1.0)
    s2 = float(np.mean(ivals / alias(shape)[0]))
    model_hat = CarfimaModel(p=p, q=q, alpha=shape.alpha, beta=shape.beta,
                             H=H_hat, sigma=math.sqrt(s2))
    parts = prepare(model_hat)
    if q >= 1 and np.any(np.roots(beta_poly_coeffs(model_hat)).real >= 0):
        warnings.warn(
            "fitted MA polynomial has roots with nonnegative real parts "
            "(invertibility-style condition violated)",
            stacklevel=2,
        )
    return FitResult(
        model_hat=model_hat,
        objective_value=float(best_fun),
        converged=bool(best.success),
        iterations=int(total_iter),
        stationarity_ok=bool(parts.stationary),
    )
