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
from .model import CarfimaModel, prepare
from .simulate import SamplePath
from .spectrum import DEFAULT_ALIAS_K, _front_constant

H_MIN = 0.01
H_MAX = 0.99
H_GAP = 0.005  # half-width of the excluded band around H = 1/2
# periodogram rows per pass of the alias sum: at K = 64 each temporary is
# 256 x 129 float64 (~260 KB), small enough to stay in a per-core L2 cache
_ROW_BLOCK = 256


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


def _modsq_even_odd(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split real coefficients of P(z) so that |P(iw)|^2 = E(w^2)^2 + w^2 O(w^2)^2."""
    d = len(coeffs) - 1
    by_power = coeffs[::-1]  # coefficient of z^e at index e
    even = by_power[0::2] * (-1.0) ** np.arange((d // 2) + 1)
    odd = by_power[1::2] * (-1.0) ** np.arange(((d + 1) // 2))
    return even[::-1], odd[::-1]  # highest power of w^2 first


def _modsq_ratio(model: CarfimaModel, w2: np.ndarray) -> np.ndarray:
    """|beta(iw)|^2/|alpha(iw)|^2 from w^2, without complex arithmetic."""
    a_coeffs = np.array([1.0] + [-a for a in model.alpha[:0:-1]])
    b_coeffs = np.array(list(reversed((1.0,) + model.beta)))
    ae, ao = _modsq_even_odd(a_coeffs)
    be, bo = _modsq_even_odd(b_coeffs)
    num = np.polyval(be, w2) ** 2
    if len(bo):
        num = num + w2 * np.polyval(bo, w2) ** 2
    den = np.polyval(ae, w2) ** 2
    if len(ao):
        den = den + w2 * np.polyval(ao, w2) ** 2
    return num / den


class _WhittleCache:
    """Frequency grids shared by every objective evaluation of one fit."""

    def __init__(self, pg: Periodogram, K: int):
        self.pg = pg
        self.K = K
        h = pg.step_h
        ks = np.arange(-K, K + 1)
        W = (pg.omegas[:, None] + 2 * math.pi * ks[None, :]) / h
        self.W2 = W * W
        self.logW = 0.5 * np.log(self.W2)
        w_min = (2 * math.pi * (K + 1) - math.pi) / h
        self.tail_grid2 = np.geomspace(w_min, 1e4 * w_min, 64) ** 2
        self.w_hi = (2 * math.pi * K - math.pi) / h
        self.w_lo = (2 * math.pi * (K + 1) + math.pi) / h

    def shape_spectrum(self, model: CarfimaModel) -> np.ndarray:
        """Aliased spectrum at sigma = 1 on the periodogram grid.

        The truncated alias sum runs over blocks of _ROW_BLOCK rows; every
        element and every row sum is computed exactly as over the full grid.
        """
        H = model.H
        c = _front_constant(model) / model.sigma**2
        trunc = np.empty(len(self.W2))
        for start in range(0, len(trunc), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            f = c * np.exp((1.0 - 2.0 * H) * self.logW[rows]) * _modsq_ratio(
                model, self.W2[rows])
            trunc[rows] = f.sum(axis=1)
        trunc = trunc / self.pg.step_h
        # tail midpoint from the power-law envelope beyond the truncation
        nu = 1.0 - 2.0 * H - 2.0 * (model.p - model.q)
        gr = _modsq_ratio(model, self.tail_grid2)
        gr = gr * self.tail_grid2 ** (model.p - model.q)
        lead = (model.beta[-1] if model.q >= 1 else 1.0) ** 2
        r_hi = max(float(gr.max()), lead) * (1 + 1e-3)
        r_lo = min(float(gr.min()), lead) * (1 - 1e-3)
        tail_hi = 2 * c * r_hi / (2 * math.pi) * self.w_hi ** (nu + 1.0) / (-nu - 1.0)
        tail_lo = 2 * c * r_lo / (2 * math.pi) * self.w_lo ** (nu + 1.0) / (-nu - 1.0)
        return trunc + 0.5 * (tail_hi + tail_lo)


def whittle_objective(pg: Periodogram, model: CarfimaModel,
                      K: int = DEFAULT_ALIAS_K) -> float:
    """sum_j [log f_h(w_j) + I(w_j)/f_h(w_j)] over the half grid."""
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("whittle objective requires a stationary model")
    cache = _WhittleCache(pg, K)
    f = cache.shape_spectrum(model) * model.sigma**2
    return float(np.sum(np.log(f) + pg.values / f))


def profile_sigma2(pg: Periodogram, model: CarfimaModel,
                   K: int = DEFAULT_ALIAS_K) -> float:
    """Closed-form minimizer of the objective over sigma^2 at fixed shape."""
    cache = _WhittleCache(pg, K)
    f_shape = cache.shape_spectrum(model)
    return float(np.mean(pg.values / f_shape))


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
    cache = _WhittleCache(pg, K)
    m = len(pg.values)
    ivals = pg.values

    def objective(theta, side):
        alpha_ar = theta[:p]
        beta = theta[p : p + q]
        H = logit_to_h(theta[-1], side)
        if q >= 1 and beta[-1] == 0.0:
            return math.inf
        if alpha_ar[0] == 0.0:
            return math.inf
        try:
            model = CarfimaModel(p=p, q=q, alpha=(0.0, *alpha_ar), beta=tuple(beta),
                                 H=H, sigma=1.0)
        except DomainError:
            return math.inf
        parts = prepare(model)
        if not parts.stationary:
            return math.inf
        f_shape = cache.shape_spectrum(model)
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
    s2 = profile_sigma2(pg, shape, K)
    model_hat = CarfimaModel(p=p, q=q, alpha=shape.alpha, beta=shape.beta,
                             H=H_hat, sigma=math.sqrt(s2))
    parts = prepare(model_hat)
    if q >= 1:
        b_coeffs = np.array(list(reversed((1.0,) + model_hat.beta)))
        if np.any(np.roots(b_coeffs).real >= 0):
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
