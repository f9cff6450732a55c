"""Whittle-type frequency-domain estimation from a regularly sampled path.

The periodogram at the Fourier frequencies is matched against the aliased
model spectrum; the innovation scale enters multiplicatively, so sigma^2 is
profiled out in closed form.  The fit is a quasi-Newton search (L-BFGS-B)
on the profiled objective and its exact gradient, over the shape
parameters: the log-coefficients of the real factors of alpha(z), so that
every iterate is stationary, the MA coefficients, and H in one box that
holds the whole family: antipersistence, short memory (H = 1/2, the CARMA
member) and long memory.  The multi-start stops once two starts agree.
Standard errors come from the Whittle Fisher information of the same
per-ordinate gradients.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
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
# Two starts agree when their final objectives per ordinate differ by at
# most this, and the multi-start then stops.  Runs that reach one minimum
# end apart by what L-BFGS-B's stopping rules leave, which is below its
# ftol (2.2e-9 relative): up to about 2e-10 on q = 0 fits at n = 4096, so
# those stop after two starts.  A gap this size is 2e-6 in the summed
# objective at n = 4096, a log-likelihood difference far below the one unit
# per parameter by which sampling moves it: two such starts fit equally well.
_AGREE_TOL = 1e-9
# periodogram and fit rescale a path by 2^-s (_scale_shift), s a multiple
# of this, so that its largest |y| lies within 2^+-150 of 1.  There no
# periodogram square of n <= 1e7 values over- or underflows, and a path
# already in that band is transformed as given.  Scaling by a power of two
# is exact, so paths 2^(300 j) apart in scale give periodograms 2^(600 j)
# apart and fit to the same shape, with sigma and the objective mapped back.
_SCALE_STEP = 300
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
    at construction.  A path far from unit scale is transformed rescaled
    by 2^-s (_scale_shift) and its values mapped back by 2^(2s), exactly;
    where some value would then leave the normal float64 range, DomainError
    is raised (fit rescales such paths itself).
    """
    y = path.values
    n = len(y)
    if n < 16:
        raise DomainError(f"periodogram needs n >= 16, got {n}")
    shift = _scale_shift(y)
    if shift:
        y = np.ldexp(y, -shift)
    x = y - y.mean()
    coefs = np.fft.fft(x)
    full = np.abs(coefs) ** 2 / (2 * math.pi * n)
    var = float(np.mean(x**2))
    parseval = float(full.sum()) * 2 * math.pi / n
    if var > 0 and abs(parseval - var) > 1e-8 * var:
        raise DomainError("periodogram failed the Parseval identity check")
    m = (n - 1) // 2
    js = np.arange(1, m + 1)
    values = full[1 : m + 1]
    if shift:
        # np.frexp gives a normal float64 an exponent in [minexp + 1, maxexp]
        exponents = np.frexp(values[values > 0])[1] + 2 * shift
        low, high = np.finfo(float).minexp + 1, np.finfo(float).maxexp
        if exponents.size and not low <= exponents.min() <= exponents.max() <= high:
            raise DomainError(
                f"periodogram values of a path of magnitude about 2^{shift} "
                "over- or underflow float64")
        values = np.ldexp(values, 2 * shift)
    return Periodogram(omegas=2 * math.pi * js / n, values=values, n=n, step_h=path.step_h)


def _scale_shift(values: np.ndarray) -> int:
    """s, a multiple of _SCALE_STEP, with max |values| 2^-s within 2^+-150."""
    exponent = math.frexp(float(np.max(np.abs(values))))[1]
    return _SCALE_STEP * ((exponent + _SCALE_STEP // 2) // _SCALE_STEP)


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
    stationary model.  H stays in [H_MIN, H_MAX], and the log-coefficients
    within LOG_RATE_SPAN of the sampling rate's scale.  Starts alternate H
    between 0.3 and 0.7, or sit near init.H when an init is given (start 0
    unperturbed, the others perturbed from the seed).  n_starts is a
    maximum: the search stops after the first start whose final objective
    agrees with an earlier start's (_AGREE_TOL per ordinate).  The best
    final objective wins, ties broken by start index.  A path far from
    unit scale is fitted rescaled by an exact power of two (_SCALE_STEP),
    with sigma and the objective mapped back.  An init of other
    orders or a nonstationary init raises DomainError.  An estimate whose
    alias-tail bracket exceeds DEFAULT_BRACKET_RTOL of the fitted spectrum
    at any frequency raises TailBoundTooLooseError: there the spectrum it
    was fitted on is clipped.
    """
    if p < 1 or not 0 <= q < p:
        raise DomainError("need p >= 1 and 0 <= q < p")
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    if init is not None and (init.p, init.q) != (p, q):
        raise DomainError(f"init has orders ({init.p}, {init.q}), the fit ({p}, {q})")
    # the Whittle fit is scale-equivariant: sigma scales with the path
    shift = _scale_shift(path.values)
    if shift:
        path = replace(path, values=np.ldexp(path.values, -shift))
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
    else:
        base_log = _log_factors(-np.linspace(0.4, 1.2, p) / path.step_h)
        base_beta = np.full(q, 0.1)
    # a and c scale as 1/h, b as 1/h^2
    scale = np.array([1.0, 2.0] * (p // 2) + [1.0] * (p % 2))
    centre = -scale * math.log(path.step_h)
    bounds = (list(zip(centre - scale * LOG_RATE_SPAN, centre + scale * LOG_RATE_SPAN))
              + [(None, None)] * q + [(H_MIN, H_MAX)])
    results = []
    total_iter = 0
    for start in range(n_starts):
        h0 = init.H if init is not None else (0.3, 0.7)[start % 2]
        theta0 = np.concatenate([base_log, base_beta, [h0]])
        if start > 0:
            theta0 += np.concatenate([0.3 * rng.standard_normal(p),
                                      0.1 * rng.standard_normal(q),
                                      [0.05 * rng.standard_normal()]])
        theta0[-1] = min(max(theta0[-1], H_MIN + 1e-3), H_MAX - 1e-3)
        res = minimize(objective, theta0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options={"gtol": 1e-5 / m})
        total_iter += res.nit
        agrees = any(abs(res.fun - r.fun) <= _AGREE_TOL for r in results)
        results.append(res)
        if agrees:
            break
    # min keeps the first of equal objectives: ties go to the lower start index
    best = min(results, key=lambda r: r.fun)
    quadratic, linear, beta, H_hat = _split(best.x, p, q)
    best_fun, _, g, dlog_g, width = profiled(best.x)
    _check_bracket(g, width, DEFAULT_BRACKET_RTOL)
    model_hat = CarfimaModel(p=p, q=q, alpha=(0.0, *_alpha_coeffs(quadratic, linear)),
                             beta=beta, H=H_hat,
                             sigma=math.ldexp(math.sqrt(float(np.mean(pg.values / g))), shift))
    parts = prepare(model_hat)
    if q >= 1 and np.any(np.roots(beta_poly_coeffs(model_hat)).real >= 0):
        warnings.warn(
            "fitted MA polynomial has roots with nonnegative real parts "
            "(invertibility-style condition violated)",
            stacklevel=2,
        )
    return FitResult(
        model_hat=model_hat,
        # Q = m log s2 + ..., and s2 scales by 2^(2 shift)
        objective_value=float(best_fun) + 2 * m * shift * math.log(2.0),
        converged=bool(best.success),
        iterations=int(total_iter),
        stationarity_ok=bool(parts.stationary),
        stderr=_stderr(dlog_g, quadratic, linear, q),
    )
