"""Whittle-type frequency-domain estimation from a regularly sampled path.

The periodogram at the Fourier frequencies is matched against the aliased
model spectrum; the innovation scale enters multiplicatively, so sigma^2 is
profiled out in closed form.  The fit is a quasi-Newton search (L-BFGS-B)
on the profiled objective and its exact gradient, over the shape
parameters: the log-coefficients of the real factors of alpha(z), so that
every iterate is stationary, the MA coefficients, and H inside box bounds
on one side of the excluded band around H = 1/2.  Multi-starts explore
both sides.  Standard errors come from the Whittle Fisher information of
the same per-ordinate gradients.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError
from .model import CarfimaModel, alpha_poly_coeffs, beta_poly_coeffs, prepare
from .simulate import SamplePath
from .spectrum import (DEFAULT_ALIAS_K, DEFAULT_BRACKET_RTOL, _alpha_factors, _AliasSum,
                       _check_bracket)

H_MIN = 0.01
H_MAX = 0.99
H_GAP = 0.005  # half-width of the excluded band around H = 1/2
# the fit keeps log a and log c within this of log(1/h), and log b within
# twice it of log(1/h^2): a and c stay within a factor 1e8 of the sampling
# rate and b within 1e16 of its square, which keeps every term of the alias
# sum finite
LOG_RATE_SPAN = math.log(1e8)


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
    # standard errors of (alpha_1..alpha_p, beta_1..beta_q, H); nan where
    # the Whittle information is singular
    stderr: tuple[float, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model_hat.to_dict(),
                "objective": self.objective_value,
                "converged": self.converged,
                "iterations": self.iterations,
                "stderr": [s if math.isfinite(s) else None for s in self.stderr],
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


def _h_bounds(side: str) -> tuple[float, float]:
    if side == "low":
        return H_MIN, 0.5 - H_GAP
    if side == "high":
        return 0.5 + H_GAP, H_MAX
    raise DomainError(f"unknown H side {side!r}")


def _log_factors(roots) -> np.ndarray:
    """theta's alpha part: log (a_1, b_1, ..., c) of the factors of alpha(z)."""
    quadratic, linear = _alpha_factors(roots)
    coeffs = np.concatenate([quadratic.ravel(), linear])
    if np.any(coeffs <= 0):
        raise DomainError("the start model must be stationary")
    return np.log(coeffs)


def _split(theta: np.ndarray, p: int, q: int):
    """(quadratic, linear, beta, H) of theta = (log factor coefficients, beta, H)."""
    coeffs = np.exp(theta[:p])
    k = p // 2
    return coeffs[: 2 * k].reshape(k, 2), coeffs[2 * k :], tuple(theta[p : p + q]), theta[-1]


def _factor_polys(quadratic, linear) -> list[np.ndarray]:
    return ([np.array([1.0, a, b]) for a, b in quadratic]
            + [np.array([1.0, c]) for c in linear])


def _alpha_coeffs(quadratic, linear) -> np.ndarray:
    """alpha_1..alpha_p of alpha(z) = the product of the factors."""
    return -reduce(np.convolve, _factor_polys(quadratic, linear), np.ones(1))[:0:-1]


def _alpha_jacobian(quadratic, linear) -> np.ndarray:
    """d(alpha_1..alpha_p) / d(log a_1, log b_1, ..., log c), a p x p matrix."""
    polys = _factor_polys(quadratic, linear)
    cols = []
    for i, poly in enumerate(polys):
        rest = reduce(np.convolve, polys[:i] + polys[i + 1 :], np.ones(1))
        for j in range(1, len(poly)):
            unit = np.zeros(len(poly))
            unit[j] = poly[j]
            cols.append(-np.convolve(unit, rest)[:0:-1])
    return np.array(cols).T


def _profiled(alias: _AliasSum, ivals: np.ndarray, p: int, q: int):
    """theta -> (Q, grad Q, g, grad log g, w): the profiled objective, its
    parts, and the width w of the alias-tail bracket on g.

    Q = m log s2 + sum log g + m with g the aliased shape spectrum (sigma = 1)
    and s2 = mean(I / g); grad Q = sum_j (1 - I_j / (s2 g_j)) grad log g_j.
    """
    m = len(ivals)

    def evaluate(theta):
        quadratic, linear, beta, H = _split(theta, p, q)
        g, tail_lo, tail_hi, dlog_g = alias.evaluate(quadratic, linear, beta, H, grad=True)
        scaled = ivals / g
        s2 = float(np.mean(scaled))
        value = m * math.log(s2) + float(np.sum(np.log(g))) + m
        return value, (1.0 - scaled / s2) @ dlog_g, g, dlog_g, tail_hi - tail_lo

    return evaluate


def _stderr(dlog_g: np.ndarray, quadratic, linear, q: int) -> tuple[float, ...]:
    """Standard errors of (alpha_1..alpha_p, beta_1..beta_q, H).

    The Whittle information is sum_j s_j s_j^T over the per-ordinate scores
    s_j = grad log g_j (each I_j / f_j is asymptotically Exp(1)); centring
    the scores profiles sigma^2 out.  The covariance maps from theta to the
    model coordinates through the factor-to-coefficient Jacobian.
    """
    scores = dlog_g - dlog_g.mean(axis=0)
    try:
        cov = np.linalg.inv(scores.T @ scores)
    except np.linalg.LinAlgError:
        return (math.nan,) * dlog_g.shape[1]
    jac = np.eye(len(cov))
    p = len(cov) - q - 1
    jac[:p, :p] = _alpha_jacobian(quadratic, linear)
    var = np.diag(jac @ cov @ jac.T)
    return tuple(float(math.sqrt(v)) if v >= 0 else math.nan for v in var)


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

    L-BFGS-B with the exact gradient over theta = (log-coefficients of the
    factors z^2 + a z + b and, for odd p, z + c of alpha(z); beta_1..beta_q;
    H), sigma^2 profiled out analytically at every step.  Every theta is a
    stationary model.  H stays inside the box of its start's side, and
    the log-coefficients within LOG_RATE_SPAN of the sampling rate's scale.
    Multi-starts alternate between the two H sides (start 0 unperturbed,
    the others perturbed from the seed); the best final objective wins,
    ties broken by start index.  An init of other orders or a nonstationary
    init raises DomainError.  An estimate whose alias-tail bracket exceeds
    DEFAULT_BRACKET_RTOL of the fitted spectrum at any frequency raises
    TailBoundTooLooseError: there the spectrum it was fitted on is clipped.
    """
    if p < 1 or not 0 <= q < p:
        raise DomainError("need p >= 1 and 0 <= q < p")
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    if init is not None and (init.p, init.q) != (p, q):
        raise DomainError(f"init has orders ({init.p}, {init.q}), the fit ({p}, {q})")
    pg = periodogram(path)
    if not np.any(pg.values):
        raise DomainError("cannot fit a constant path: its periodogram is zero")
    profiled = _profiled(_AliasSum(pg.omegas, pg.step_h, K), pg.values, p, q)
    m = len(pg.values)

    # L-BFGS-B runs on the objective per ordinate.  Its first step is taken
    # with a unit Hessian, so on the sum over m ordinates that step grows
    # with m and can land on a corner of the box.  The gradient tolerance is
    # still scipy's default, 1e-5, on the sum.
    def objective(theta):
        value, grad = profiled(theta)[:2]
        return value / m, grad / m

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if init is not None:
        base_log = _log_factors(np.roots(alpha_poly_coeffs(init)))
        base_beta = np.array(init.beta) if q >= 1 else np.zeros(0)
        base_h = init.H
    else:
        base_log = _log_factors(-np.linspace(0.4, 1.2, p) / path.step_h)
        base_beta = np.full(q, 0.1)
        base_h = None
    # a and c scale as 1/h, b as 1/h^2
    scale = np.array([1.0, 2.0] * (p // 2) + [1.0] * (p % 2))
    centre = -scale * math.log(path.step_h)
    log_bounds = list(zip(centre - scale * LOG_RATE_SPAN, centre + scale * LOG_RATE_SPAN))
    results = []
    total_iter = 0
    for start in range(n_starts):
        side = ("low", "high")[start % 2] if base_h is None else (
            "low" if base_h < 0.5 else "high")
        lo, hi = _h_bounds(side)
        h0 = base_h if base_h is not None else {"low": 0.3, "high": 0.7}[side]
        theta0 = np.concatenate([base_log, base_beta, [h0]])
        if start > 0:
            theta0 += np.concatenate([0.3 * rng.standard_normal(p),
                                      0.1 * rng.standard_normal(q),
                                      [0.05 * rng.standard_normal()]])
        theta0[-1] = min(max(theta0[-1], lo + 1e-3), hi - 1e-3)
        res = minimize(objective, theta0, method="L-BFGS-B", jac=True,
                       bounds=log_bounds + [(None, None)] * q + [(lo, hi)],
                       options={"gtol": 1e-5 / m})
        total_iter += res.nit
        results.append((res.fun, start, res))
    best = min(results, key=lambda r: (r[0], r[1]))[2]
    quadratic, linear, beta, H_hat = _split(best.x, p, q)
    best_fun, _, g, dlog_g, width = profiled(best.x)
    _check_bracket(g, width, DEFAULT_BRACKET_RTOL)
    model_hat = CarfimaModel(p=p, q=q, alpha=(0.0, *_alpha_coeffs(quadratic, linear)),
                             beta=beta, H=H_hat,
                             sigma=math.sqrt(float(np.mean(pg.values / g))))
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
        stderr=_stderr(dlog_g, quadratic, linear, q),
    )
