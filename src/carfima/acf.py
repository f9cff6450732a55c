"""Autocovariance of the stationary process by three cross-validating routes.

* closed eigen-expansion over the companion eigenvalues (the production
  path when the eigenvalues are distinct),
* adaptive quadrature of the defining matrix-integral form (fallback and
  oracle),
* the exact matrix expression at H = 1/2, where the process degenerates
  to a CARMA process.

Each route takes a scalar lag or an array of lags and returns a float or
an array to match.  The parts that depend on the model alone (V*, the
eigen weights, the decay horizon and the Gamma(2H+1) prefactor) are
computed once per call, not once per lag.  The closed form evaluates the
kernel specfun.u_kernel once per eigenvalue, over the whole lag array.  The
CARMA route takes e^{Ah} at every lag from one batched scaling-and-squaring
Pade kernel (_expm_lags), not from one scipy expm per lag; the sites that
need a single matrix exponential at a time (the quadrature integrands and
the decay horizon) keep scipy's expm, which is faster for one matrix.

Also provides the stationary state covariance (Lyapunov solve), the
power-law tail asymptote and cov(Y_0, B^H_t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.special import gamma as gamma_fn

from .errors import (
    CarfimaError,
    DomainError,
    QuadratureError,
    RepeatedEigenvaluesError,
    SingularLyapunovError,
)
from .model import CarfimaModel, char_poly_eval, prepare
from .specfun import u_kernel

LYAPUNOV_RESIDUAL_RTOL = 1e-8

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)

# Pade [13/13] coefficients of e^X (Higham 2005, SIAM J. Matrix Anal. Appl.
# 26:1179), divided by the constant term so that it is 1 and X = 0 gives
# the identity bit for bit; theta_13 is the largest ||X||_1 the
# approximant takes unscaled
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class AcfTable:
    """Autocovariance values on a lag grid with their provenance."""

    lags: np.ndarray
    values: np.ndarray
    method: str  # closed_form | quadrature | carma_exact | fourier | empirical
    model_hash: str

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if lags.shape != values.shape or lags.ndim != 1:
            raise DomainError("lags and values must be 1-d arrays of equal length")
        if np.any(np.diff(lags) <= 0):
            raise DomainError("lags must be strictly ascending")
        if not np.all(np.isfinite(values)):
            raise DomainError("autocovariance values must be finite")
        if lags[0] == 0.0 and self.method != "empirical":
            g0 = values[0]
            if g0 < 0 or np.any(np.abs(values) > g0 * (1 + 1e-8) + 1e-12):
                raise CarfimaError("lag-0 autocovariance must dominate the table")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)
        lags.setflags(write=False)
        values.setflags(write=False)

    def to_csv(self, path) -> None:
        _write_csv(path, ["lag", "gamma", "method"], (self.lags, self.values), [self.method])


def _write_csv(path, header, columns, constants=()) -> None:
    """Write a header, then one row per entry of the float columns.

    Each float is written as its repr, so it reads back exactly; the
    constants close every row.  The file is built as one string, each
    column converted by one tolist() and one map(repr), and written at
    once; rows end in "\\r\\n", as csv.writer ends them.  No field is
    quoted: a float repr and the table's constants never hold a comma, a
    quote or a line break.
    """
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    end = "".join("," + c for c in constants) + "\r\n"
    body = "".join(",".join(row) + end for row in zip(*cells))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def vstar(model: CarfimaModel) -> np.ndarray:
    """Stationary state covariance V* at H = 1/2, as a read-only array.

    Solves A V* + V* A' = -sigma^2 delta_p delta_p' by Bartels-Stewart.
    """
    parts = prepare(model)
    A = parts.A
    Q = (model.sigma**2) * np.outer(parts.delta_p, parts.delta_p)
    with warnings.catch_warnings():
        # when lambda_i + lambda_j = 0 scipy perturbs the system and warns;
        # the residual check below is what rejects such a solution
        warnings.filterwarnings("ignore", 'Input "a" has an eigenvalue pair')
        V = solve_continuous_lyapunov(A, -Q)
    V = 0.5 * (V + V.T)
    resid = np.max(np.abs(A @ V + V @ A.T + Q))
    if not np.isfinite(resid) or resid > LYAPUNOV_RESIDUAL_RTOL * model.sigma**2:
        raise SingularLyapunovError(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RESIDUAL_RTOL:.0e}*sigma^2"
        )
    V.setflags(write=False)
    return V


def _decay_horizon(A, rtol: float = 1e-14, weight_exp: float = 0.0) -> float:
    """U with ||e^{AU}|| * U^weight_exp below rtol, verified directly."""
    eigs = np.linalg.eigvals(A)
    nu = float(np.max(eigs.real))
    if nu >= 0:
        raise DomainError("decay horizon requires a stable matrix")
    U = max(math.log(1.0 / rtol) / abs(nu), 1.0)
    for _ in range(200):
        norm = np.linalg.norm(expm(A * U), 2) * U**weight_exp
        if norm <= rtol:
            return U
        U *= 1.5
    raise QuadratureError("could not find a decay horizon for the tail truncation")


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


def _stationary_parts(model: CarfimaModel):
    """prepare(model), refused unless the model is stationary."""
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("operation requires a stationary model")
    return parts


def _lag_array(h) -> np.ndarray:
    """The lags as a float array, refused unless every one is >= 0."""
    h = np.asarray(h, dtype=float)
    if not np.all(h >= 0):
        raise DomainError(f"h must be >= 0, got {h[~(h >= 0)][0]}")
    return h


def _like_lags(values, h: np.ndarray):
    """A float for a 0-d lag, otherwise an array of the lags' shape."""
    out = np.asarray(values, dtype=float).reshape(h.shape)
    return float(out) if out.ndim == 0 else out


def acf_integral_form(model: CarfimaModel, h):
    """Autocovariance at lag(s) h from the three-integral matrix form.

    Works for any 0 < H < 1 and does not need distinct eigenvalues; each
    integral is evaluated with the matrix exponential folded in so the
    integrands stay bounded.  V* and the decay horizon are computed once
    per call.
    """
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


def _eigen_coeffs(model: CarfimaModel, lambdas: np.ndarray) -> np.ndarray:
    """Weights beta(l) beta(-l) / (alpha'(l) alpha(-l)) per eigenvalue l."""
    out = np.empty(len(lambdas), dtype=complex)
    for i, lam in enumerate(lambdas):
        _, a1, b_pos = char_poly_eval(model, lam)
        a_neg, _, b_neg = char_poly_eval(model, -lam)
        out[i] = b_pos * b_neg / (a1 * a_neg)
    return out


def acf_closed_form(model: CarfimaModel, h):
    """Autocovariance at lag(s) h from the closed eigen-expansion.

    Requires distinct eigenvalues; the conjugate-pair structure makes the
    complex sum real, and a residual imaginary part above
    1e-8 (|value| + sigma^2) is treated as a branch-selection bug.  The
    eigen weights and the Gamma(2H+1) prefactor are computed once per call,
    and u_kernel runs once per eigenvalue over the whole lag array; each
    lag's value is accumulated eigenvalue by eigenvalue, so a lag rounds the
    same in an array call as in a call of its own.
    """
    h = _lag_array(h)
    parts = _stationary_parts(model)
    if not parts.distinct:
        raise RepeatedEigenvaluesError(
            "eigenvalues too close for the closed form; use acf_integral_form"
        )
    H = model.H
    hs = h.reshape(-1)
    total = np.zeros(len(hs), dtype=complex)
    for c, lam in zip(_eigen_coeffs(model, parts.lambdas), parts.lambdas):
        total += c * u_kernel(H, lam, hs)
    total *= 0.5 * model.sigma**2 * gamma_fn(2 * H + 1)
    bad = np.abs(total.imag) > 1e-8 * (np.abs(total) + model.sigma**2)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CarfimaError(
            f"eigen-expansion returned imaginary residue {total[i].imag:.3e} "
            f"at h={hs[i]}"
        )
    return _like_lags(total.real, h)


def _expm_lags(A: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """e^{A h} for every lag h of the 1-d array hs, as a (lags, p, p) array.

    Scaling and squaring with the [13/13] Pade approximant, batched over
    the lags.  Every matrix is A h, so with t = h / 2^s the numerator and
    denominator are scalar polynomials in t times the powers A^0..A^13,
    which are formed once per call.  s is the least integer >= 0 with
    ||A t||_1 <= theta_13, taken from log2 ||A||_1 + log2 h and applied
    with ldexp, so no finite lag overflows: a lag far past the decay
    squares down to zero instead of to NaN.  Then one batched solve gives
    the approximants, and each lag is squared s times.  Every sum runs
    term by term, elementwise, so a lag gives the same bits whatever the
    other lags of the call.  The one-matrix sites (the quadrature
    integrands, the decay horizon, the mean trajectory, the Euler
    propagator) keep scipy's expm, which is faster for a single matrix.
    """
    p = A.shape[0]
    with np.errstate(divide="ignore"):  # log2(0) = -inf gives s = 0
        s = np.ceil(np.log2(np.linalg.norm(A, 1)) + np.log2(hs) - np.log2(_THETA13))
    s = np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(int)
    t = np.ldexp(hs, -s)[:, None, None]
    even = np.zeros((len(hs), p, p))
    odd = np.zeros((len(hs), p, p))
    power, tk = np.eye(p), np.ones_like(t)
    for k, c in enumerate(_PADE13):
        term = (c * tk) * power
        if k % 2:
            odd += term
        else:
            even += term
        power, tk = power @ A, tk * t
    out = np.linalg.solve(even - odd, even + odd)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        x = out[sq]
        out[sq] = _matmul_terms(x, x)
    return out


def _matmul_terms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y over stacks of matrices, summed term by term elementwise."""
    out = X[..., :, :1] * Y[..., :1, :]
    for k in range(1, X.shape[-1]):
        out += X[..., :, k:k + 1] * Y[..., k:k + 1, :]
    return out


def acf_carma(model: CarfimaModel, h):
    """Autocovariance at lag(s) h for the H = 1/2 (CARMA) case.

    Both the matrix form beta' e^{Ah} V* beta and, when the eigenvalues are
    distinct, the eigen-sum are computed; they must agree to 1e-9 relative
    at every lag.  The matrix form is returned.  Its exponentials come from
    _expm_lags, one batched Pade kernel over all the lags of the call, not
    one scipy expm per lag.
    """
    h = _lag_array(h)
    if model.H != 0.5:
        raise DomainError("acf_carma requires H = 1/2 exactly")
    parts = _stationary_parts(model)
    V = vstar(model)
    b = parts.beta_vec
    hs = h.reshape(-1)
    # each product is summed term by term: BLAS rounds a (lags, p) @ (p,)
    # product by how many rows it has, and a lag's value must not depend on
    # the other lags of the call
    row = _matmul_terms(b[None, None], _expm_lags(parts.A, hs))
    mat_form = np.sum(_matmul_terms(row, V[None]) * b, axis=-1)[:, 0]
    if parts.distinct:
        coeffs = _eigen_coeffs(model, parts.lambdas)
        eig_form = model.sigma**2 * np.sum(
            coeffs * np.exp(parts.lambdas * hs[:, None]), axis=1)
        scale = np.maximum(np.abs(mat_form), np.abs(eig_form))
        bad = np.abs(mat_form - eig_form) > 1e-9 * scale.clip(1e-12 * float(b @ V @ b))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise CarfimaError(
                f"CARMA matrix and eigen forms disagree at h={hs[i]}: "
                f"{mat_form[i]!r} vs {eig_form[i]!r}"
            )
    return _like_lags(mat_form, h)


def acf_tail_asymptote(model: CarfimaModel, h: float) -> float:
    """Large-lag power law sigma^2 H (2H-1) h^{2H-2} / alpha_1^2."""
    if model.H == 0.5:
        raise DomainError("the tail asymptote is defined for H != 1/2")
    if h <= 0:
        raise DomainError(f"h must be > 0, got {h}")
    H = model.H
    return model.sigma**2 * H * (2 * H - 1) * h ** (2 * H - 2) / model.alpha[1] ** 2


def cov_y0_fbm(model: CarfimaModel, t: float) -> float:
    """Covariance between the stationary Y_0 and the driving fBm at time t.

    Only exposed for alpha_0 = 0, matching the two-sided stationary
    construction the formula is derived from.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if model.alpha[0] != 0.0:
        raise DomainError("cov_y0_fbm requires alpha_0 = 0")
    parts = _stationary_parts(model)
    if t == 0:  # Y_0 against B_H(0) = 0
        return 0.0
    H = model.H
    A = parts.A
    b = parts.beta_vec
    dp = parts.delta_p

    def psi(u):
        return b @ expm(A * u) @ dp

    scale = model.sigma
    U = _decay_horizon(A, rtol=1e-15, weight_exp=max(2 * H - 1, 0.0))
    shifted = _checked_quad(lambda u: psi(u) * (u + t) ** (2 * H - 1), 0.0, U, scale)
    plain = _int_power_weight(psi, U, H, scale)
    return H * model.sigma * (shifted - plain)


def acf_route(model: CarfimaModel) -> str:
    """The route method="auto" takes, from the model's own H and eigenvalues.

    "carma_exact" at H = 1/2 exactly, "closed_form" for distinct
    eigenvalues, and "quadrature" otherwise.
    """
    if model.H == 0.5:
        return "carma_exact"
    return "closed_form" if prepare(model).distinct else "quadrature"


def autocovariance(model: CarfimaModel, lags, method: str = "auto") -> AcfTable:
    """Autocovariance table on a lag grid by the route method names.

    method="auto" takes acf_route(model); the table's method records the
    route taken.
    """
    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    if method == "auto":
        method = acf_route(model)
    routes = {"closed_form": acf_closed_form, "quadrature": acf_integral_form,
              "carma_exact": acf_carma}
    if method not in routes:
        raise DomainError(f"unknown acf method {method!r}")
    return AcfTable(lags=lags, values=routes[method](model, lags), method=method,
                    model_hash=model.model_hash())
