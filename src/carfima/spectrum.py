"""Spectral density of the process and of its regularly sampled skeleton.

The continuous-time density is a closed form; the sampled process has the
folded (aliased) density, an infinite sum truncated here with a rigorous
power-law bracket on the remainder.  A cosine-transform oracle checks the
spectral density against the autocovariance routes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma
from scipy.special import gamma as gamma_fn

from .acf import _write_csv, acf_carma, acf_closed_form, acf_integral_form, acf_route
from .errors import DomainError, QuadratureError, TailBoundTooLooseError
from .model import CarfimaModel, alpha_poly_coeffs, is_stationary, prepare

DEFAULT_ALIAS_K = 64
DEFAULT_BRACKET_RTOL = 1e-2
# alias-sum rows per pass: at K = 64 each temporary is 256 x 129 float64
# (~260 KB), small enough to stay in a per-core L2 cache
_ROW_BLOCK = 256


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
        h = "" if self.step_h is None else repr(float(self.step_h))
        k = "" if self.truncation_K is None else str(self.truncation_K)
        _write_csv(path, ["omega", "f", "kind", "h", "K"], (self.omegas, self.values),
                   [self.kind, h, k])


def _even_odd(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Split real coefficients of P(z) so that |P(iw)|^2 = E(w^2)^2 + w^2 O(w^2)^2."""
    d = len(coeffs) - 1
    by_power = np.asarray(coeffs)[::-1]  # coefficient of z^e at index e
    even = by_power[0::2] * (-1.0) ** np.arange((d // 2) + 1)
    odd = by_power[1::2] * (-1.0) ** np.arange(((d + 1) // 2))
    return even[::-1], odd[::-1]  # highest power of w^2 first


def _alpha_factors(roots) -> tuple[np.ndarray, np.ndarray]:
    """Real factors of alpha(z) = prod (z^2 + a z + b) * prod (z + c) from its roots.

    Each complex-conjugate pair (exact pairs, as a real eigenvalue solver
    returns them) gives one quadratic; the real roots, in descending order,
    pair up into quadratics, and for odd p the last one gives the linear
    factor.  Returns the (a, b) rows and the c values; every entry is
    positive iff every root lies in the open left half-plane.
    """
    roots = np.asarray(roots, dtype=complex)
    upper = roots[roots.imag > 0]
    real = np.sort(roots[roots.imag == 0].real)[::-1]
    pairs = real[: 2 * (len(real) // 2)].reshape(-1, 2)
    quadratic = np.concatenate([
        np.stack([-2.0 * upper.real, upper.real**2 + upper.imag**2], axis=1),
        np.stack([-pairs.sum(axis=1), pairs.prod(axis=1)], axis=1),
    ])
    return quadratic, -real[2 * len(pairs):]


def _ratio_sq(quadratic: np.ndarray, linear: np.ndarray, beta):
    """|beta(iw)|^2 / |alpha(iw)|^2 as a function of w^2, in real arithmetic.

    alpha(z) is the product of the factors z^2 + a z + b (rows (a, b) of
    quadratic) and z + c (entries of linear), whose moduli at z = iw are
    (b - w^2)^2 + a^2 w^2 and w^2 + c^2.  ratio(w2, grad=True) returns
    the value and d log(value) / d theta, one array per entry of theta =
    (log a_1, log b_1, ..., log c_1, ..., beta_1..beta_q).
    """
    be, bo = _even_odd((1.0, *beta)[::-1])
    q = len(beta)
    sq_a, b, sq_c = quadratic[:, 0] ** 2, quadratic[:, 1], linear**2

    def ratio(w2, grad=False):
        mods = ([(bj - w2) ** 2 + aj * w2 for aj, bj in zip(sq_a, b)]
                + [w2 + cj for cj in sq_c])
        num = 1.0
        if q:
            even, odd = _horner(be, w2), _horner(bo, w2)
            num = even**2 + w2 * odd**2
        if not grad:
            return num / reduce(operator.mul, mods)
        # reciprocals in place: fewer live temporaries per block, lower peak memory
        invs = [np.reciprocal(mod, out=mod) for mod in mods]
        value = reduce(operator.mul, invs)
        if q:
            value = num * value
        dlogs = []
        for aj, bj, inv in zip(sq_a, b, invs):
            dlogs += [-2.0 * aj * w2 * inv, -2.0 * bj * (bj - w2) * inv]
        dlogs += [-2.0 * cj * inv for cj, inv in zip(sq_c, invs[len(b):])]
        # d|beta(iw)|^2 / d beta_k = 2 (-1)^floor(k/2) w^(2 ceil(k/2)) times
        # E for even k and O for odd k
        two_over_num = 2.0 / num
        w_pow = 1.0
        for k in range(1, q + 1):
            sign = -1.0 if (k // 2) % 2 else 1.0
            if k % 2:
                w_pow = w_pow * w2
            dlogs.append(sign * w_pow * (odd if k % 2 else even) * two_over_num)
        return value, dlogs

    return ratio


def _horner(coeffs: np.ndarray, x):
    """Polynomial value, highest power first; the constant itself for degree 0."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _front_constant(H: float, sigma: float = 1.0) -> float:
    """sigma^2 Gamma(2H+1) sin(pi H) / (2 pi)."""
    return sigma**2 * gamma_fn(2 * H + 1) * math.sin(math.pi * H) / (2 * math.pi)


def spectral_density(model: CarfimaModel, omega):
    """Spectral density f_Y(omega) of the continuous-time process.

    At omega = 0 the density is 0 for H < 1/2, the classical CARMA value
    for H = 1/2, and a genuine singularity for H > 1/2 reported as inf.
    Accepts scalars or arrays.
    """
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("spectral density requires a stationary model")
    w = np.asarray(omega, dtype=float)
    # 0^{1-2H} gives the omega = 0 values: 0, the CARMA value, or inf
    with np.errstate(divide="ignore"):
        out = (_front_constant(model.H, model.sigma) * np.abs(w) ** (1.0 - 2.0 * model.H)
               * _ratio_sq(*_alpha_factors(parts.lambdas), model.beta)(w * w))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AliasedValue:
    """Aliased density with the bracket on the truncated tail."""

    value: float
    tail_lo: float
    tail_hi: float

    @property
    def bracket_width(self) -> float:
        return self.tail_hi - self.tail_lo


class _AliasSum:
    """The alias sum of f_Y over a fixed (omega grid, h, K), for any model.

    Holds the alias frequencies W = (omega + 2 pi k) / h, |k| <= K, as W^2
    and log|W|, and the grid on which the tail bracket samples f_Y.
    """

    def __init__(self, omegas: np.ndarray, step_h: float, K: int):
        if K < 1:
            raise DomainError(f"K must be >= 1, got {K}")
        if step_h <= 0:
            raise DomainError(f"step_h must be positive, got {step_h}")
        self.step_h = step_h
        ks = np.arange(-K, K + 1)
        W = (omegas[:, None] + 2 * math.pi * ks[None, :]) / step_h
        self.W2 = W * W
        with np.errstate(divide="ignore"):
            self.logW = 0.5 * np.log(self.W2)
        w_min = (2 * math.pi * (K + 1) - math.pi) / step_h
        self.tail_grid2 = np.geomspace(w_min, 1e4 * w_min, 256) ** 2
        self.w_hi = (2 * math.pi * K - math.pi) / step_h  # integral bound from x = K
        self.w_lo = (2 * math.pi * (K + 1) + math.pi) / step_h  # from x = K + 1

    def __call__(self, model: CarfimaModel) -> tuple[np.ndarray, float, float]:
        """Aliased density per omega, and the bracket (tail_lo, tail_hi) on its tail.

        Every caller that passes a model passes this stationarity gate; the
        factors of alpha(z) come from the roots it computes.
        """
        roots = np.roots(alpha_poly_coeffs(model))
        if not is_stationary(roots):
            raise DomainError("aliased spectrum requires a stationary model")
        ratio = _ratio_sq(*_alpha_factors(roots), model.beta)
        return self.evaluate(ratio, model.p, model.beta, model.H, model.sigma)[:3]

    def evaluate(self, ratio, p: int, beta, H: float, sigma: float = 1.0,
                 grad: bool = False):
        """(f, tail_lo, tail_hi, dlog_f) for a _ratio_sq of order (p, len(beta)) and H.

        f is the truncated sum plus the midpoint of the tail bracket.  The
        sum runs over blocks of _ROW_BLOCK rows; every element and every row
        sum is computed exactly as over the full grid.  With grad, dlog_f
        holds d log f / d theta per omega (one row each), for theta = the
        ratio's parameters followed by H; the derivative rows accumulate in
        the same pass.  Otherwise dlog_f is None.
        """
        e = 1.0 - 2.0 * H
        c = _front_constant(H, sigma)
        rows_total = len(self.W2)
        trunc = np.empty(rows_total)
        if grad:
            # d log c / dH
            dlog_c = 2.0 * digamma(2.0 * H + 1.0) + math.pi / math.tan(math.pi * H)
            dtrunc = np.empty((rows_total, p + len(beta) + 1))
        for start in range(0, rows_total, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            # |W|^{1-2H}; at H = 1/2 it is 1 even where W = 0
            power = np.exp(e * self.logW[rows]) if e else 1.0
            if not grad:
                trunc[rows] = (c * power * ratio(self.W2[rows])).sum(axis=1)
                continue
            value, dlogs = ratio(self.W2[rows], grad=True)
            term = np.multiply(power, value, out=value)  # the summand over c
            trunc[rows] = c * term.sum(axis=1)
            for j, dlog in enumerate(dlogs):
                dtrunc[rows, j] = c * np.einsum("ij,ij->i", term, dlog)
            # d |W|^{1-2H} / dH = -2 log|W| |W|^{1-2H}
            dtrunc[rows, -1] = (dlog_c * trunc[rows]
                                - 2.0 * c * np.einsum("ij,ij->i", term, self.logW[rows]))
        # remainder: |k| > K aliases lie beyond w_min; f_Y there is pinched
        # between two power laws C * w^nu with nu = 1-2H-2(p-q) < -1
        d = p - len(beta)
        nu = e - 2.0 * d
        if grad:
            tail_ratio, tail_dlogs = ratio(self.tail_grid2, grad=True)
        else:
            tail_ratio = ratio(self.tail_grid2)
        vals = tail_ratio * self.tail_grid2 ** d
        lead = (beta[-1] if len(beta) else 1.0) ** 2
        r_hi = max(float(vals.max()), lead) * (1 + 1e-3)
        r_lo = min(float(vals.min()), lead) * (1 - 1e-3)
        tail_hi = 2 * c * r_hi / (2 * math.pi) * self.w_hi ** (nu + 1.0) / (-nu - 1.0)
        tail_lo = 2 * c * r_lo / (2 * math.pi) * self.w_lo ** (nu + 1.0) / (-nu - 1.0)
        f = trunc / self.step_h + 0.5 * (tail_hi + tail_lo)
        if not grad:
            return f, tail_lo, tail_hi, None
        # the bracket ends are differentiated with their argmax and argmin
        # held fixed; H enters through c(H) and the exponent nu = 1-2H-2(p-q)
        dlog_lead = np.zeros(dtrunc.shape[1] - 1)
        if len(beta):
            dlog_lead[-1] = 2.0 / beta[-1]

        def dlog_end(r_vals_wins, i, w_end):
            dlog_r = (np.array([dl[i] for dl in tail_dlogs]) if r_vals_wins
                      else dlog_lead)
            return np.append(dlog_r, dlog_c - 2.0 * (math.log(w_end) + 1.0 / (-nu - 1.0)))

        dtail = 0.5 * (
            tail_hi * dlog_end(vals.max() >= lead, int(np.argmax(vals)), self.w_hi)
            + tail_lo * dlog_end(vals.min() <= lead, int(np.argmin(vals)), self.w_lo))
        return f, tail_lo, tail_hi, (dtrunc / self.step_h + dtail) / f[:, None]


def aliased_spectrum_detail(
    model: CarfimaModel,
    omega: float,
    step_h: float,
    K: int = DEFAULT_ALIAS_K,
    bracket_rtol: float = DEFAULT_BRACKET_RTOL,
) -> AliasedValue:
    """Aliased density at one frequency with the tail bracket exposed."""
    if not -math.pi <= omega <= math.pi:
        raise DomainError(f"omega must lie in [-pi, pi], got {omega}")
    values, tail_lo, tail_hi = _AliasSum(np.array([float(omega)]), step_h, K)(model)
    _check_bracket(values, tail_hi - tail_lo, bracket_rtol)
    return AliasedValue(value=float(values[0]), tail_lo=tail_lo, tail_hi=tail_hi)


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
) -> float:
    """Spectral density of the h-sampled process at omega in [-pi, pi]."""
    return aliased_spectrum_detail(model, omega, step_h, K, bracket_rtol).value


def spectrum_table(
    model: CarfimaModel,
    omegas,
    kind: str = "continuous",
    step_h: float | None = None,
    K: int = DEFAULT_ALIAS_K,
) -> SpectrumTable:
    """Tabulate f_Y or the aliased f_h on a frequency grid."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if kind == "continuous":
        values = spectral_density(model, omegas)
        return SpectrumTable(omegas=omegas, values=values, kind=kind)
    if kind != "aliased":
        raise DomainError(f"unknown spectrum kind {kind!r}")
    if step_h is None:
        raise DomainError("aliased spectra need step_h")
    values, tail_lo, tail_hi = _AliasSum(omegas, step_h, K)(model)
    _check_bracket(values, tail_hi - tail_lo, DEFAULT_BRACKET_RTOL)
    return SpectrumTable(omegas=omegas, values=values, kind=kind, step_h=step_h,
                         truncation_K=K)


def fourier_consistency_check(
    model: CarfimaModel, lag_grid=(0.0, 1.0, 5.0), tolerance: float = 1e-4
) -> dict:
    """Cosine transform of the spectral density versus the ACF routes.

    gamma_hat(h) = 2 int_0^inf f_Y(w) cos(w h) dw, split at w = 1: the
    origin piece is smoothed by the substitution w = v^{1/(2-2H)} (which
    absorbs the |w|^{1-2H} factor exactly), the tail piece goes to QUADPACK's
    Fourier integrator.  Returns a report with the max relative deviation.
    """
    H = model.H
    c = _front_constant(H, model.sigma)
    kappa = 1.0 / (2.0 - 2.0 * H)
    split = 1.0

    parts = prepare(model)
    ratio = _ratio_sq(*_alpha_factors(parts.lambdas), model.beta)

    def gamma_hat(h: float) -> float:
        def low(v):
            w = v**kappa
            return ratio(w * w) * math.cos(w * h)

        i_low, e_low = quad(low, 0.0, split ** (1.0 / kappa), epsabs=1e-13,
                            epsrel=1e-11, limit=400)
        i_low *= c * kappa

        def high(w):
            return c * w ** (1.0 - 2.0 * H) * ratio(w * w)

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
    route = {"carma_exact": acf_carma, "closed_form": acf_closed_form,
             "quadrature": acf_integral_form}[acf_route(model)]
    reference = route(model, np.array(lags)).tolist()
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
