"""Test oracles: independent routes that only the tests call.

* V* from its defining integral, by quadrature, against the Lyapunov solve;
* the covariance of two step-function fBm integrals, by the increment
  double sum and by the kernel forms (one for each side of H = 1/2);
* the state-equation Euler path, one sub-step at a time;
* the CARMA autocovariance beta' e^{Ah} V* beta in 40-digit mpmath;
* the csv.writer table writer, one row at a time;
* the three-integral autocovariance and cov(Y_0, B^H_t) by adaptive
  QUADPACK, one scipy expm per integrand value;
* the CAR(1) three-integral autocovariance in 30-digit mpmath;
* the known-mean sample autocovariances, one lag at a time.
"""

import csv
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from carfima import CarfimaModel, DomainError, QuadratureError, prepare, simulate_fgn, vstar
from carfima.acf import _decay_horizon, _lag_array, _like_lags, _stationary_parts
from carfima.fgn import _check_h


def vstar_integral(parts, model: CarfimaModel, rtol: float = 1e-12) -> np.ndarray:
    """V* from its defining integral, by quadrature, given prepare(model)."""
    U = _decay_horizon(parts.A, rtol=1e-16)
    p = model.p

    def cell(i, j):
        def f(u):
            g = expm(parts.A * u) @ parts.delta_p
            return g[i] * g[j]

        val, err = quad(f, 0.0, U, epsabs=1e-14, epsrel=rtol, limit=400)
        return val

    V = np.array([[cell(i, j) for j in range(p)] for i in range(p)])
    return model.sigma**2 * 0.5 * (V + V.T)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function c_i on (s_i, s_{i+1}], zero elsewhere."""

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(s) for s in self.breakpoints)
        lv = tuple(float(c) for c in self.levels)
        if len(bp) != len(lv) + 1 or len(lv) < 1:
            raise DomainError("need m+1 breakpoints for m >= 1 levels")
        if any(nxt <= prv for prv, nxt in zip(bp[:-1], bp[1:])):
            raise DomainError("breakpoints must be strictly ascending")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    @property
    def end(self) -> float:
        return self.breakpoints[-1]

    @property
    def end_level(self) -> float:
        return self.levels[-1]


def integral_cov_direct(f: StepFunction, g: StepFunction, H: float) -> float:
    """Covariance of the two step-function fBm integrals by the increment
    double sum (valid for every 0 < H < 1)."""
    _check_h(H)
    s = np.asarray(f.breakpoints)
    t = np.asarray(g.breakpoints)
    c = np.asarray(f.levels)
    d = np.asarray(g.levels)
    twoH = 2 * H

    def pw(x):
        return np.abs(x) ** twoH

    s_lo, s_hi = s[:-1, None], s[1:, None]
    t_lo, t_hi = t[None, :-1], t[None, 1:]
    cell = pw(s_hi - t_lo) + pw(s_lo - t_hi) - pw(t_hi - s_hi) - pw(s_lo - t_lo)
    return 0.5 * float(c @ cell @ d)


def integral_cov_kernel(f: StepFunction, g: StepFunction, H: float) -> float:
    """Same covariance through the kernel forms, one per side of H = 1/2.

    For H > 1/2 the double integral of |u-v|^{2H-2} over each cell has a
    closed antiderivative; for H < 1/2 the boundary term plus the sum over
    the point masses of df is evaluated with the |x|^{2H}/(2H) pieces.
    No numerical quadrature is involved.
    """
    _check_h(H)
    if H == 0.5:
        raise DomainError("kernel forms are defined for H != 1/2")
    s = np.asarray(f.breakpoints)
    t = np.asarray(g.breakpoints)
    c = np.asarray(f.levels)
    d = np.asarray(g.levels)
    twoH = 2 * H

    def pw(x):
        return np.abs(x) ** twoH

    if H > 0.5:
        # H(2H-1) int int |u-v|^{2H-2} over [a,b]x[c,d], antiderivative twice
        a, b = s[:-1, None], s[1:, None]
        lo, hi = t[None, :-1], t[None, 1:]
        cell = (pw(b - lo) - pw(a - lo) - pw(b - hi) + pw(a - hi)) / (twoH * (twoH - 1.0))
        return H * (twoH - 1.0) * float(c @ cell @ d)
    # H < 1/2: boundary term at the endpoint of f's support ...
    s_end = f.end
    term1 = 0.5 * f.end_level * float(d @ (pw(s_end - t[:-1]) - pw(s_end - t[1:])))
    # ... plus the point masses of df at s_0, ..., s_{m-1}
    jumps = np.diff(c, prepend=0.0)  # c_i - c_{i-1}, c_{-1} = 0
    inner = pw(s[:-1, None] - t[None, 1:]) - pw(s[:-1, None] - t[None, :-1])
    term2 = 0.5 * float(jumps @ inner @ d)
    return term1 + term2


def state_euler_loop(model: CarfimaModel, n: int, step_h: float, substeps: int,
                     seed: int) -> tuple[np.ndarray, int]:
    """simulate_state_euler's values by a Python loop over the sub-steps,
    and the number of sub-steps (fGn increments) drawn.

    Same burn-in and the same fGn draw; the state advances as
    x <- e^{AD} x + drift + sigma e^{AD/2} delta_p xi_k, with the drift
    A^{-1}(e^{AD} - I) alpha_0 delta_p, from the stationary mean.
    """
    parts = prepare(model)
    p = model.p
    A = parts.A
    delta = step_h / substeps
    prop = expm(A * delta)
    drift = np.linalg.solve(A, (prop - np.eye(p))) @ (model.alpha[0] * parts.delta_p)
    noise_vec = model.sigma * (expm(A * delta / 2.0) @ parts.delta_p)
    decay = abs(float(np.max(parts.lambdas.real)))
    burn = math.ceil(max(100.0, 20.0 / decay) / delta)
    total = burn + n * substeps
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    db = simulate_fgn(model.H, total, delta, rng)
    x = -(model.alpha[0] / model.alpha[1]) * np.eye(p)[0]
    out = np.empty(n)
    j = 0
    for k in range(total):
        x = prop @ x + drift + noise_vec * db[k]
        rel = k + 1 - burn
        if rel > 0 and rel % substeps == 0:
            out[j] = parts.beta_vec @ x
            j += 1
    return out, total


def carma_acf_mpmath(model: CarfimaModel, lags, dps: int = 40) -> list[float]:
    """beta' e^{Ah} V* beta at each lag, with V* from the Kronecker form of
    the Lyapunov equation and e^{Ah} from mpmath's expm, at dps digits."""
    parts = prepare(model)
    p = model.p
    with mpmath.workdps(dps):
        A = mpmath.matrix(parts.A.tolist())
        b = mpmath.matrix(parts.beta_vec.tolist())
        d = mpmath.matrix(parts.delta_p.tolist())
        # (I (x) A + A (x) I) vec V = -sigma^2 vec(d d')
        kron = mpmath.matrix(p * p, p * p)
        rhs = mpmath.matrix(p * p, 1)
        for i in range(p):
            for j in range(p):
                rhs[i * p + j] = -mpmath.mpf(model.sigma) ** 2 * d[i] * d[j]
                for k in range(p):
                    kron[i * p + j, k * p + j] += A[i, k]
                    kron[i * p + j, i * p + k] += A[j, k]
        vec = mpmath.lu_solve(kron, rhs)
        V = mpmath.matrix(p, p)
        for i in range(p):
            for j in range(p):
                V[i, j] = vec[i * p + j]
        Vb = V * b
        return [float((b.T * mpmath.expm(A * mpmath.mpf(h)) * Vb)[0]) for h in lags]


def csv_writer_rows(path, header, columns, constants=()) -> None:
    """The table writer as csv.writer rows: a header, then one row per entry
    of the float columns, each float as repr(float(x)), the constants last."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([*(repr(float(x)) for x in row), *constants])


_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)


def _checked_quad(f, a, b, scale):
    val, err = quad(f, a, b, **_QUAD_OPTS)
    if err > 1e-6 * max(abs(val), scale):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def _int_power_weight(f, c, H, scale):
    """int_0^c f(u) u^{2H-1} du with the endpoint singularity substituted away.

    For H < 1/2 the substitution u = v^{1/(2H)} gives a constant weight; for
    H >= 1/2, u = v^2 makes the integrand C^1 at the origin.
    """
    if c <= 0:
        return 0.0
    if H < 0.5:
        g = 1.0 / (2.0 * H)
        return _checked_quad(lambda v: f(v**g), 0.0, c ** (2.0 * H), scale) / (2.0 * H)
    return _checked_quad(
        lambda v: f(v * v) * 2.0 * v ** (4.0 * H - 1.0), 0.0, math.sqrt(c), scale
    )


def acf_integral_quad(model: CarfimaModel, h):
    """The three-integral autocovariance by adaptive QUADPACK per lag, each
    integrand value one scipy expm."""
    h = _lag_array(h)
    parts = _stationary_parts(model)
    H = model.H
    A = parts.A
    V = vstar(model)
    bA = parts.beta_vec @ A
    Vb = V @ parts.beta_vec

    def phi(s):
        return bA @ expm(A * s) @ Vb

    scale = abs(float(parts.beta_vec @ V @ parts.beta_vec))
    U = _decay_horizon(A, rtol=1e-15, weight_exp=max(2 * H - 1, 0.0))

    def at(x):
        i1 = _int_power_weight(lambda u: phi(x - u), x, H, scale)
        i3 = _int_power_weight(lambda u: phi(u + x), U, H, scale)
        if x == 0:  # the second integral is then the third
            return H * (i1 - i3 - i3)
        i2 = _checked_quad(lambda w: phi(w) * (w + x) ** (2 * H - 1), 0.0, U, scale)
        return H * (i1 - i2 - i3)

    return _like_lags([at(x) for x in h.flat], h)


def cov_y0_fbm_quad(model: CarfimaModel, t: float) -> float:
    """cov(Y_0, B^H_t) by adaptive QUADPACK, for alpha_0 = 0 and t > 0."""
    parts = prepare(model)
    H = model.H
    A = parts.A

    def psi(u):
        return parts.beta_vec @ expm(A * u) @ parts.delta_p

    U = _decay_horizon(A, rtol=1e-15, weight_exp=max(2 * H - 1, 0.0))
    shifted = _checked_quad(lambda u: psi(u) * (u + t) ** (2 * H - 1), 0.0, U, model.sigma)
    plain = _int_power_weight(psi, U, H, model.sigma)
    return H * model.sigma * (shifted - plain)


def car1_acf_mpmath(H: float, h: float, a1: float = -1.0, sigma: float = 1.0,
                    dps: int = 30) -> float:
    """The CAR(1) autocovariance H (I1 - I2 - I3) by mpmath quadrature at dps
    digits, with phi(s) = -sigma^2 e^{a1 s} / 2 and the horizon at infinity."""
    with mpmath.workdps(dps):
        H, x, lam = mpmath.mpf(H), mpmath.mpf(h), mpmath.mpf(a1)
        c = 2 * H - 1

        def phi(s):
            return -mpmath.mpf(sigma) ** 2 * mpmath.exp(lam * s) / 2

        i1 = mpmath.quad(lambda u: phi(x - u) * u**c, [0, x]) if x > 0 else 0
        i2 = mpmath.quad(lambda w: phi(w) * (w + x) ** c, [0, mpmath.inf])
        i3 = mpmath.quad(lambda u: phi(u + x) * u**c, [0, mpmath.inf])
        return float(H * (i1 - i2 - i3))


def empirical_acf_loop(paths: np.ndarray, max_lag: int, mean: float) -> np.ndarray:
    """Known-mean sample autocovariances, one row per path, each lag as the
    mean of an elementwise product."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float)) - mean
    n = paths.shape[1]
    out = np.empty((paths.shape[0], max_lag + 1))
    for k in range(max_lag + 1):
        out[:, k] = np.mean(paths[:, : n - k] * paths[:, k:], axis=1)
    return out
