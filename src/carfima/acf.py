"""Autocovariance of the stationary process by three cross-validating routes.

* closed eigen-expansion over the companion eigenvalues (the production
  path when the eigenvalues are distinct and not clustered),
* a fixed tanh-sinh rule on the defining matrix-integral form (fallback
  and oracle),
* the exact matrix expression at H = 1/2, where the process degenerates
  to a CARMA process.

acf_route picks the route from the model alone, before any lag is
evaluated (_expansion_weights), so a lag's route and bits never depend on
the other lags of a call.

Each route takes a scalar lag or an array of lags and returns a float or
an array to match.  The parts that depend on the model alone (V*, the
eigen weights, the decay horizon and the Gamma(2H+1) prefactor) are
computed once per call, not once per lag.  The closed form evaluates the
kernel specfun.u_kernel once per eigenvalue, over the whole lag array.  The
CARMA route and the integral form take their matrix exponentials from one
batched scaling-and-squaring Pade kernel (_expm_lags) over all the lags or
nodes of a call, not from one scipy expm per lag or node; only the decay
horizon, which needs a few single exponentials, keeps scipy's expm.

Also provides the stationary state covariance (Lyapunov solve), the
power-law tail asymptote and cov(Y_0, B^H_t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
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

# An eigen-expansion sum_i c_i u_i(h) is trusted while its condition number
# kappa (_expansion_weights) times _TERM_RTOL, the accuracy of one term (the
# kernel's against 30-digit mpmath, test_specfun), stays within
# _EXPANSION_MAX_ERROR.  Clustered roots make the weights c_i large and
# cancelling: acf_route then takes the integral form, the closed form
# refuses them, and at H = 1/2 the eigen cross-check is not run.
_TERM_RTOL = 1e-13
_EXPANSION_MAX_ERROR = 1e-10

# The tanh-sinh rule on [0, 1] (Takahasi & Mori 1974): nodes
# t = e^z / (2 cosh z), z = (pi/2) sinh(tau), at tau = k * _TS_STEP / 2 for
# |tau| <= _TS_TAU_MAX, where the weights have fallen below 1e-22.  The even
# k are the coarse level (step _TS_STEP); all k are the fine level.
_TS_STEP = 1.0 / 16
_TS_TAU_MAX = 3.5
# the largest level difference a value passes, relative to max(|value|, scale)
_QUAD_RTOL = 1e-6
# the rule on [0, U] runs in panels short enough that the fastest
# oscillation, max |Im lambda|, turns by at most this many radians on one;
# a model that needs more panels than _MAX_PANELS (115 000 nodes) is refused
_PANEL_RADIANS = 16.0
_MAX_PANELS = 512
# values per block of lags in acf_integral_form, so that the (lags x nodes)
# arrays stay near 0.5 MB each
_BLOCK_VALUES = 2**16

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


def _stationary_parts(model: CarfimaModel):
    """prepare(model), refused unless the model is stationary."""
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("operation requires a stationary model")
    return parts


def _lag_array(h) -> np.ndarray:
    """The lags as a float array, refused unless every one is finite and >= 0."""
    h = np.asarray(h, dtype=float)
    ok = np.isfinite(h) & (h >= 0)
    if not np.all(ok):
        raise DomainError(f"h must be finite and >= 0, got {h[~ok][0]}")
    return h


def _like_lags(values, h: np.ndarray):
    """A float for a 0-d lag, otherwise an array of the lags' shape."""
    out = np.asarray(values, dtype=float).reshape(h.shape)
    return float(out) if out.ndim == 0 else out


def _tanh_sinh_nodes():
    """log t and the fine-level weights of the tanh-sinh rule on [0, 1].

    t = e^z / (2 cosh z) is taken through log t = -log1p(e^{-2z}): near
    t = 0 the form (1 + tanh z) / 2 cancels, and the power-law weights of
    the rule's users lose their accuracy with it.
    """
    k = 2 * math.ceil(_TS_TAU_MAX / _TS_STEP)  # even, so node 0 is a coarse node
    tau = np.arange(-k, k + 1) * (0.5 * _TS_STEP)
    z = 0.5 * math.pi * np.sinh(tau)
    log_t = -np.log1p(np.exp(-2.0 * z))
    weight = (0.5 * _TS_STEP) * (0.25 * math.pi) * np.cosh(tau) / np.cosh(z) ** 2
    log_t.setflags(write=False)
    weight.setflags(write=False)
    return log_t, weight


_TS_LOG_T, _TS_WEIGHT = _tanh_sinh_nodes()


def _level_sums(terms):
    """The (coarse, fine) tanh-sinh sums of terms shaped (panels, nodes, ...).

    The terms carry the fine-level weights; the coarse level doubles them
    on the even nodes.  Each entry is summed node by node (a cumulative
    sum), so its sums do not depend on the other entries.
    """
    rest = terms.shape[2:]
    even = np.cumsum(terms[:, 0::2].reshape(-1, *rest), axis=0)[-1]
    odd = np.cumsum(terms[:, 1::2].reshape(-1, *rest), axis=0)[-1]
    return 2.0 * even, even + odd


def _check_levels(coarse, fine, scale: float, name: str, at) -> None:
    """Raise QuadratureError where the tanh-sinh levels differ by more than
    _QUAD_RTOL max(|fine|, scale); at holds the lags or times of the values,
    which the message names as name=."""
    coarse, fine, at = np.atleast_1d(coarse), np.atleast_1d(fine), np.atleast_1d(at)
    bad = ~(np.abs(fine - coarse) <= _QUAD_RTOL * np.maximum(np.abs(fine), scale))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise QuadratureError(
            f"quadrature error estimate {abs(fine[k] - coarse[k]):.3e} too large "
            f"for value {fine[k]:.6e} at {name}={at[k]}")


@dataclass(frozen=True)
class _Horizon:
    """The tanh-sinh rule on [0, U] in panels of length P.

    Each array is shaped (panels, nodes): the nodes w and log w, the weights
    dw of a smooth integrand and pw = w^{2H-1} dw of a power-weighted one.
    """

    P: float
    w: np.ndarray
    log_w: np.ndarray
    dw: np.ndarray
    pw: np.ndarray


def _horizon_rule(lambdas: np.ndarray, U: float, H: float) -> _Horizon:
    """The rule on [0, U], cut into equal panels.

    The first panel maps w = P t^e with e = max(1, 1/(2H)): for H < 1/2 the
    weight w^{2H-1} dw is then a constant times dt, and for H >= 1/2 it is
    the bounded t^{2H-1} dt (e = 1/(2H) < 1 there would make dw itself
    singular at t = 0).  The other panels map w linearly.  There are enough
    panels that max |Im lambda| turns by at most _PANEL_RADIANS on one;
    past _MAX_PANELS of them QuadratureError is raised.
    """
    c, e = 2.0 * H - 1.0, max(1.0, 1.0 / (2.0 * H))
    J = max(1, math.ceil(U * float(np.max(np.abs(lambdas.imag))) / _PANEL_RADIANS))
    if J > _MAX_PANELS:
        raise QuadratureError(
            f"{J} panels of the decay horizon {U:.3g} needed for the oscillation, "
            f"more than {_MAX_PANELS}")
    P = U / J
    log_t, wt = _TS_LOG_T, _TS_WEIGHT
    w = P * (np.arange(J)[:, None] + np.exp(log_t))
    log_w = np.empty_like(w)
    log_w[0] = math.log(P) + e * log_t  # finite where P t^e underflows
    log_w[1:] = np.log(w[1:])
    w[0] = np.exp(log_w[0])
    dw = np.empty_like(w)
    dw[0] = e * P * wt * np.exp((e - 1.0) * log_t)
    dw[1:] = P * wt
    pw = np.empty_like(w)
    pw[0] = e * P ** (2.0 * H) * wt * np.exp((2.0 * H * e - 1.0) * log_t)
    pw[1:] = dw[1:] * np.exp(c * log_w[1:])
    return _Horizon(P=P, w=w, log_w=log_w, dw=dw, pw=pw)


def _forms(A: np.ndarray, s: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """row' e^{As} col for every entry of s, summed term by term elementwise."""
    E = _expm_lags(A, s.reshape(-1))
    out = _matmul_terms(_matmul_terms(row[None, None], E), col[:, None])
    return out.reshape(s.shape)


def _near_lag_piece(A, row, col, H, x, start):
    """(coarse, fine) int_start^x phi(v) [(x-v)^{2H-1} - (x+v)^{2H-1}] dv.

    phi(v) = row' e^{Av} col.  With l = x - start, v = x - l t^e puts the
    singular end v = x at t = 0 and makes (x-v)^{2H-1} dv a constant or
    bounded power of t, as in _horizon_rule.  The bracket, times t^{e-1},
    is t^{2He-1} [1 - ((2x/l - t^e) / t^e)^{2H-1}], formed as one expm1, so
    near H = 1/2 it keeps its relative accuracy.  e^{Av} on the
    (lags x nodes) grid comes from one _expm_lags call.
    """
    c, e = 2.0 * H - 1.0, max(1.0, 1.0 / (2.0 * H))
    log_t = _TS_LOG_T
    ell = x - start
    v = -np.expm1(e * log_t)  # 1 - t^e, accurate near t = 1
    phi = _forms(A, start[:, None] + ell[:, None] * v, row, col)
    log_far = np.log1p(2.0 * (start / ell)[:, None] + v)  # log(2x/l - t^e)
    g = -np.exp((2.0 * H * e - 1.0) * log_t) * np.expm1(c * (log_far - e * log_t))
    terms = (_TS_WEIGHT * g * phi).T[None]
    return [e * ell ** (2.0 * H) * level for level in _level_sums(terms)]


def acf_integral_form(model: CarfimaModel, h):
    """Autocovariance at lag(s) h from the three-integral matrix form.

    gamma(x) = H (I1 - I2 - I3) with phi(s) = beta' A e^{As} V* beta,
    I1 = int_0^x phi(x-u) u^{2H-1} du, I2 = int_0^U phi(w) (w+x)^{2H-1} dw
    and I3 = int_0^U phi(u+x) u^{2H-1} du, U the decay horizon.  It holds
    for any 0 < H < 1 and needs no distinct eigenvalues.  It is evaluated
    as gamma(x) = H [D(x) - beta' A e^{Ax} (K(x) + M)], where
    D(x) = int_0^x phi(v) [(x-v)^{2H-1} - (x+v)^{2H-1}] dv is I1 less the
    part of I2 on [0, x], K(x) = int_0^U e^{Ay} V* beta (2x+y)^{2H-1} dy
    gives the rest of I2 (e^{A(x+y)} = e^{Ax} e^{Ay}, and phi is negligible
    past U), and M = int_0^U e^{Au} V* beta u^{2H-1} du gives I3.  Near
    H = 1/2, where I1 and I2 tend to one value, D is formed without their
    difference.

    Every integral is a fixed tanh-sinh rule at two levels: the fine level
    is returned, and the difference between the levels is its error
    estimate, which must stay within _QUAD_RTOL max(|gamma|, beta' V* beta)
    at every lag, or QuadratureError is raised (_check_levels).  M, K and
    the part of D on whole panels below x run on the horizon nodes of
    _horizon_rule, whose exponentials are formed once per call; the part of
    D near x runs on a (lags x nodes) grid.  The exponentials come from _expm_lags, every sum
    runs elementwise, and the lags are taken in blocks, so each lag gives
    the same bits whatever the other lags of the call.
    """
    h = _lag_array(h)
    parts = _stationary_parts(model)
    H, A = model.H, parts.A
    c = 2.0 * H - 1.0
    V = vstar(model)
    row = parts.beta_vec @ A
    col = V @ parts.beta_vec
    scale = abs(float(parts.beta_vec @ col))
    U = _decay_horizon(A, rtol=1e-15, weight_exp=max(c, 0.0))
    rule = _horizon_rule(parts.lambdas, U, H)
    J, p = rule.w.shape[0], len(row)
    E = _expm_lags(A, rule.w.reshape(-1))
    cols = _matmul_terms(E, col[:, None]).reshape(*rule.w.shape, p)  # e^{Aw} V* beta
    phis = _matmul_terms(cols[..., None, :], row[:, None])[..., 0, 0]
    M = _level_sums(rule.pw[..., None] * cols)
    hs = h.reshape(-1)
    out = np.empty(len(hs))
    block = max(1, _BLOCK_VALUES // (rule.w.size * p + len(_TS_WEIGHT) * p * p))
    for i in range(0, len(hs), block):
        x = hs[i:i + block]
        rows = _matmul_terms(row[None, None], _expm_lags(A, x))  # beta' A e^{Ax}
        with np.errstate(divide="ignore"):  # x = 0: log 0 = -inf, a ratio of 1
            log_2x = np.log(2.0 * x)
        ratio = np.exp(c * (np.logaddexp(rule.log_w[..., None], log_2x)
                            - rule.log_w[..., None]))  # (1 + 2x/w)^{2H-1}
        K = _level_sums((rule.pw[..., None] * ratio)[..., None] * cols[:, :, None])
        levels = [-_matmul_terms(rows, (k + m)[:, :, None])[:, 0, 0] for k, m in zip(K, M)]
        j = np.floor(x / rule.P)
        whole = j >= 2  # panels 0 .. j-2 end at least one panel below x
        if np.any(whole):
            xw = x[whole]
            gap = xw - rule.w[..., None]
            taken = np.arange(J)[:, None, None] < j[whole] - 1
            with np.errstate(invalid="ignore", divide="ignore"):
                bracket = -gap ** c * np.expm1(c * np.log1p(2.0 * rule.w[..., None] / gap))
                terms = np.where(taken, (rule.dw * phis)[..., None] * bracket, 0.0)
            for level, d in zip(levels, _level_sums(terms)):
                level[whole] += d
        near = (j <= J) & (x > 0)  # the rest of [0, x] before the horizon ends
        if np.any(near):
            start = np.maximum(j[near] - 1.0, 0.0) * rule.P
            for level, d in zip(levels, _near_lag_piece(A, row, col, H, x[near], start)):
                level[near] += d
        coarse, fine = H * levels[0], H * levels[1]
        _check_levels(coarse, fine, scale, "h", x)
        out[i:i + block] = fine
    return _like_lags(out, h)


def _eigen_coeffs(model: CarfimaModel, lambdas: np.ndarray) -> np.ndarray:
    """Weights beta(l) beta(-l) / (alpha'(l) alpha(-l)) per eigenvalue l."""
    out = np.empty(len(lambdas), dtype=complex)
    for i, lam in enumerate(lambdas):
        _, a1, b_pos = char_poly_eval(model, lam)
        a_neg, _, b_neg = char_poly_eval(model, -lam)
        out[i] = b_pos * b_neg / (a1 * a_neg)
    return out


def _expansion_weights(model: CarfimaModel, parts) -> tuple[np.ndarray | None, float]:
    """The eigen weights c_i if the eigen-expansion is trusted (else None), and kappa.

    kappa = sum |t_i| / |sum t_i| over the lag-0 terms t_i = 2 c_i
    (-lambda_i)^{1-2H}.  Trusted means distinct eigenvalues and kappa *
    _TERM_RTOL within _EXPANSION_MAX_ERROR; a model that is not stationary
    or distinct gives (None, inf).  The separation test is not redundant: a
    root of beta cancelling one root of a near-double pair leaves kappa
    near 1 while the weights of the pair have lost their digits.
    """
    if not (parts.distinct and parts.stationary):
        return None, math.inf
    coeffs = _eigen_coeffs(model, parts.lambdas)
    at0 = 2.0 * coeffs * (-parts.lambdas) ** (1.0 - 2.0 * model.H)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = float(np.sum(np.abs(at0)) / abs(np.sum(at0)))
    return (coeffs if kappa * _TERM_RTOL <= _EXPANSION_MAX_ERROR else None), kappa


def acf_closed_form(model: CarfimaModel, h):
    """Autocovariance at lag(s) h from the closed eigen-expansion.

    Requires a trusted expansion (_expansion_weights): distinct
    eigenvalues, and a condition number kappa, read from the lag-0 terms,
    small enough that clustered eigenvalues do not cancel in the weights.
    Otherwise RepeatedEigenvaluesError is raised before any lag is
    evaluated; acf_route takes the integral form for such models.  The
    conjugate-pair structure makes the complex sum real, and a residual
    imaginary part above 1e-8 (|value| + sigma^2) is treated as a
    branch-selection bug.  The eigen weights and the Gamma(2H+1) prefactor
    are computed once per call, and u_kernel runs once per eigenvalue over
    the whole lag array; each lag's value is accumulated eigenvalue by
    eigenvalue, so a lag rounds the same in an array call as in a call of
    its own.
    """
    h = _lag_array(h)
    parts = _stationary_parts(model)
    coeffs, kappa = _expansion_weights(model, parts)
    if coeffs is None:
        raise RepeatedEigenvaluesError(
            f"eigen-expansion condition number {kappa:.3g}: eigenvalues too close "
            "or clustered for the closed form; use acf_integral_form"
        )
    H = model.H
    hs = h.reshape(-1)
    total = np.zeros(len(hs), dtype=complex)
    for c, lam in zip(coeffs, parts.lambdas):
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
    """e^{A h} for every entry h of the 1-d array hs, as a (len(hs), p, p) array.

    Scaling and squaring with the [13/13] Pade approximant, batched over
    the lags.  Every matrix is A h, so with t = h / 2^s the numerator and
    denominator are scalar polynomials in t times the powers A^0..A^13,
    which are formed once per call.  s is the least integer >= 0 with
    ||A t||_1 <= theta_13, taken from log2 ||A||_1 + log2 h and applied
    with ldexp, so no finite lag overflows: a lag far past the decay
    squares down to zero instead of to NaN.  Then one batched solve gives
    the approximants, and each lag is squared s times.  Every sum runs
    term by term, elementwise, so a lag gives the same bits whatever the
    other lags of the call.  The entries are the lags of acf_carma, and the
    flattened nodes of the tanh-sinh rule in acf_integral_form and
    cov_y0_fbm, where there are (lags x nodes) of them.  The one-matrix
    sites (the decay horizon, the mean trajectory, the Euler propagator)
    keep scipy's expm, which is faster for a single matrix.
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

    The matrix form beta' e^{Ah} V* beta is returned.  When the model's
    eigen-expansion is trusted (_expansion_weights, the test
    acf_closed_form applies), the eigen-sum is computed too, and the two
    must agree to 1e-9 relative at every lag; otherwise no lag is compared.
    Its exponentials come from _expm_lags, one batched Pade kernel over all
    the lags of the call, not one scipy expm per lag.
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
    coeffs, _ = _expansion_weights(model, parts)
    if coeffs is not None:
        terms = coeffs * np.exp(parts.lambdas * hs[:, None])
        eig_form = model.sigma**2 * np.sum(terms, axis=1)
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

    H sigma int_0^U psi(u) [(u+t)^{2H-1} - u^{2H-1}] du with
    psi(u) = beta' e^{Au} delta_p, on the rule of acf_integral_form and
    under its error contract, with sigma as the scale.  Only exposed for
    alpha_0 = 0, matching the two-sided stationary construction the formula
    is derived from.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if model.alpha[0] != 0.0:
        raise DomainError("cov_y0_fbm requires alpha_0 = 0")
    parts = _stationary_parts(model)
    if t == 0:  # Y_0 against B_H(0) = 0
        return 0.0
    H = model.H
    c = 2.0 * H - 1.0
    U = _decay_horizon(parts.A, rtol=1e-15, weight_exp=max(c, 0.0))
    rule = _horizon_rule(parts.lambdas, U, H)
    psi = _forms(parts.A, rule.w, parts.beta_vec, parts.delta_p)
    # (w + t)^{2H-1} - w^{2H-1} = w^{2H-1} expm1((2H-1) log(1 + t/w))
    bracket = np.expm1(c * (np.logaddexp(rule.log_w, math.log(t)) - rule.log_w))
    coarse, fine = _level_sums(rule.pw * psi * bracket)
    _check_levels(coarse, fine, model.sigma, "t", t)
    return H * model.sigma * float(fine)


def acf_route(model: CarfimaModel) -> str:
    """The route method="auto" takes, decided from the model before any lag.

    "carma_exact" at H = 1/2 exactly, "closed_form" when the eigen-expansion
    is trusted (_expansion_weights: distinct eigenvalues and a small
    condition number at lag 0), and "quadrature" otherwise.
    """
    if model.H == 0.5:
        return "carma_exact"
    trusted = _expansion_weights(model, prepare(model))[0] is not None
    return "closed_form" if trusted else "quadrature"


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
    values = routes[method](model, lags)
    return AcfTable(lags=lags, values=values, method=method, model_hash=model.model_hash())
