"""Spectral density of the process and of its regularly sampled skeleton.

The continuous-time density is a closed form; the sampled process has the
folded (aliased) density, an infinite sum over aliases.  The K nearest
aliases on each side are summed term by term.  The rest is the sum of the
leading power laws of f_Y, each summed over the aliases in closed form by
Euler-Maclaurin, and clipped into a rigorous power-law bracket on the
remainder.  A cosine-transform oracle checks the spectral density against
the autocovariance routes.
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
from .fgn import _BLOCK_ELEMENTS, MAX_GRID_POINTS, _check_step
from .model import CarfimaModel, alpha_poly_coeffs, is_stationary, prepare

DEFAULT_ALIAS_K = 16
DEFAULT_BRACKET_RTOL = 1e-2
# largest relative deviation the cosine-transform check passes
_FOURIER_RTOL = 1e-4
# spectral_density evaluates |beta(iw)|^2 / |alpha(iw)|^2 in omega up to
# this |omega| and in 1/omega above it: each quadratic factor of alpha is
# of order omega^4 there, and their product overflows (to 0, or inf / inf)
# from about |omega| = 1e77 at p = 2, and earlier for larger p
_FAR_OMEGA = 1e8
# power laws w^{-s}, w^{-s-2}, ... of f_Y summed exactly in the alias tail
_TAIL_LAWS = 4
# 2 zeta(5) / (2 pi)^5 bounds |B_5(t - floor t)| / 5!, the periodic
# Bernoulli factor of the Euler-Maclaurin remainder after the B_4 term
_EM_REMAINDER = 2 * 1.0369277551433699 / (2 * math.pi) ** 5


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
        if not np.all(values >= 0):
            raise DomainError("spectral density values must be nonnegative, not NaN")
        if self.kind not in ("continuous", "aliased"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "aliased":
            _check_step(self.step_h)
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
    the value, a list of basis arrays and a square matrix coef, such that
    d log(value) / d theta_j = sum_m coef[j, m] basis[m] for theta =
    (log a_1, log b_1, ..., log c_1, ..., beta_1..beta_q).  The value array
    may be one of the basis arrays.
    """
    be, bo = _even_odd((1.0, *beta)[::-1])
    q = len(beta)
    sq_a, b, sq_c = quadratic[:, 0] ** 2, quadratic[:, 1], linear**2
    # a quadratic factor's basis is 1/mod and w^2/mod, with the rows
    # (0, -2a^2) for log a and (-2b^2, 2b) for log b; a linear factor's is
    # 1/mod with the row -2c^2; beta_k's is d log|beta(iw)|^2 / d beta_k
    n = 2 * len(b) + len(sq_c) + q
    coef = np.eye(n)
    for i, (aj, bj) in enumerate(zip(sq_a.tolist(), b.tolist())):
        coef[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = ((0.0, -2.0 * aj), (-2.0 * bj * bj, 2.0 * bj))
    for i, cj in enumerate(sq_c.tolist(), 2 * len(b)):
        coef[i, i] = -2.0 * cj

    def ratio(w2, grad=False):
        mods = []
        for aj, bj in zip(sq_a, b):
            mod = bj - w2
            mod *= mod
            mod += aj * w2
            mods.append(mod)
        mods += [w2 + cj for cj in sq_c]
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
        basis = []
        for inv in invs[: len(b)]:
            basis += [inv, w2 * inv]
        basis += invs[len(b):]
        # d|beta(iw)|^2 / d beta_k = 2 (-1)^floor(k/2) w^(2 ceil(k/2)) times
        # E for even k and O for odd k
        two_over_num = 2.0 / num
        w_pow = 1.0
        for k in range(1, q + 1):
            sign = -1.0 if (k // 2) % 2 else 1.0
            if k % 2:
                w_pow = w_pow * w2
            basis.append(sign * w_pow * (odd if k % 2 else even) * two_over_num)
        return value, basis, coef

    return ratio


def _series_mul(x, y) -> list[float]:
    """Taylor coefficients of x(y) y(y), both given and returned to the same length."""
    out = [0.0] * len(x)
    for i, xi in enumerate(x):
        for j in range(len(x) - i):
            out[i + j] += xi * y[j]
    return out


def _series_div(x, y) -> list[float]:
    """Taylor coefficients of x(y) / y(y), both given and returned to the same length."""
    out = list(x)
    for n in range(len(out)):
        for i in range(n):
            out[n] -= out[i] * y[n - i]
        out[n] /= y[0]
    return out


def _tail_laws(quadratic: np.ndarray, linear: np.ndarray, beta):
    """(lead, r, d log lead, d r) of R(w^2) w^{2(p-q)} = lead sum_j r_j w^{-2j}.

    R = |beta(iw)|^2 / |alpha(iw)|^2; the sum runs over j < _TAIL_LAWS and
    converges for w above every root modulus.  In y = 1/w^2 it is lead
    N(y) / D(y) with lead = beta_q^2,
    D(y) = |alpha(iw)|^2 / w^{2p} = prod (1 + (a^2 - 2b) y + b^2 y^2) prod (1 + c^2 y)
    and N(y) = |beta(iw)|^2 / (beta_q^2 w^{2q}), whose w^{2k} coefficient
    in |beta(iw)|^2 is n_k = (-1)^k sum_{i+j=2k} (-1)^j beta_i beta_j.  So
    r_0 = 1 and r_1 = sum mu^2 - sum lambda^2 over the MA roots mu and the
    AR roots lambda.  The derivatives have one row per entry of (log a_1,
    log b_1, ..., log c_1, ..., beta_1..beta_q); a factor F of D adds
    -r dF / F to d r.
    """
    pad = [0.0] * _TAIL_LAWS

    def series(*coeffs):
        return [*coeffs, *pad][:_TAIL_LAWS]

    factors, dfactors = [], []  # each factor of D, and (factor, dF) per log-coefficient
    for a, b in quadratic.tolist():
        factors.append(series(1.0, a * a - 2.0 * b, b * b))
        dfactors += [(factors[-1], series(0.0, 2.0 * a * a)),
                     (factors[-1], series(0.0, -2.0 * b, 2.0 * b * b))]
    for c in linear.tolist():
        factors.append(series(1.0, c * c))
        dfactors.append((factors[-1], series(0.0, 2.0 * c * c)))
    den = reduce(_series_mul, factors, series(1.0))
    coeffs = (1.0, *map(float, beta))
    q = len(beta)
    lead = coeffs[-1] ** 2

    def beta_at(i):
        return coeffs[i] if 0 <= i <= q else 0.0

    n = [(-1.0) ** k * sum((-1.0) ** j * beta_at(2 * k - j) * coeffs[j] for j in range(q + 1))
         for k in range(q + 1)]
    num = series(*(v / lead for v in n[::-1]))  # N(y)
    r = _series_div(num, den)
    dr = [[-v for v in _series_mul(r, _series_div(dF, F))] for F, dF in dfactors]
    dlog_lead = [0.0] * (len(dr) + q)
    if q:
        dlog_lead[-1] = 2.0 / coeffs[-1]
    for m in range(1, q + 1):
        # dn_k / d beta_m = 2 (-1)^{k+m} beta_{2k-m}, and lead moves with beta_q
        dnum = series(*(2.0 * (-1.0) ** (k + m) * beta_at(2 * k - m) / lead
                        for k in range(q, -1, -1)))
        if m == q:
            dnum = [dv - v * dlog_lead[-1] for dv, v in zip(dnum, num)]
        dr.append(_series_div(dnum, den))
    return lead, np.array(r), np.array(dlog_lead), np.array(dr).reshape(len(dlog_lead), -1)


def _em_coefficients(s: float) -> np.ndarray:
    """Tail sums over u^{1-n}, n = 0..2 _TAIL_LAWS + 2, and their derivatives in s.

    With t = s + 2j, sum_{i >= 0} (u + i)^{-t} is u^{-s} times row j of
    coef[0] applied to the powers u^{1-n}: the Euler-Maclaurin integral,
    half term and B_2 and B_4 corrections, u^{1-2j}/(t-1) + u^{-2j}/2 +
    t u^{-2j-1}/12 - t(t+1)(t+2) u^{-2j-3}/720.  coef[1] holds the
    derivatives of those coefficients in s.
    """
    coef = np.zeros((2, _TAIL_LAWS, 2 * _TAIL_LAWS + 3))
    for j in range(_TAIL_LAWS):
        t = s + 2.0 * j
        coef[0, j, 2 * j : 2 * j + 5] = (1.0 / (t - 1.0), 0.5, t / 12.0, 0.0,
                                         -t * (t + 1.0) * (t + 2.0) / 720.0)
        coef[1, j, 2 * j : 2 * j + 5] = (-1.0 / (t - 1.0) ** 2, 0.0, 1.0 / 12.0, 0.0,
                                         -(3.0 * t * t + 6.0 * t + 2.0) / 720.0)
    return coef


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
    Above _FAR_OMEGA the ratio is evaluated in 1/|omega| (`_far_shape`), so
    the density stays finite and underflows only where its value does.
    Accepts scalars or arrays.
    """
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("spectral density requires a stationary model")
    shape = np.shape(omega)
    w = np.abs(np.asarray(omega, dtype=float)).ravel()
    quadratic, linear = _alpha_factors(parts.lambdas)
    front = _front_constant(model.H, model.sigma)
    far = w > _FAR_OMEGA
    near = ~far
    out = np.empty(len(w))
    # 0^{1-2H} gives the omega = 0 values: 0, the CARMA value, or inf
    with np.errstate(divide="ignore"):
        out[near] = (front * w[near] ** (1.0 - 2.0 * model.H)
                     * _ratio_sq(quadratic, linear, model.beta)(w[near] ** 2))
    out[far] = front * _far_shape(quadratic, linear, model.beta, model.H, w[far])
    return float(out[0]) if shape == () else out.reshape(shape)


def _far_shape(quadratic: np.ndarray, linear: np.ndarray, beta, H: float, w: np.ndarray):
    """w^{1-2H} |beta(iw)|^2 / |alpha(iw)|^2 for w > 0, formed in v = 1/w.

    With y = v^2, the factors of alpha give w^4 ((1 - b y)^2 + a^2 y) and
    w^2 (1 + c^2 y), and |beta(iw)|^2 = w^{2q} |P(iv)|^2 with P(z) = z^q +
    beta_1 z^{q-1} + ... + beta_q, so no intermediate grows with w.  The
    2(p - q) factors v come last, each one making the value smaller: it
    underflows only where the result does.
    """
    w = np.minimum(w, np.finfo(float).max)  # at infinity the limit, 0, up to underflow
    v = 1.0 / w
    y = v * v
    # -2H is exact where 1 - 2H may round, by up to 1.1e-16, which a power
    # of w = 1e300 would magnify 690 times
    out = w * w ** (-2.0 * H)
    if len(beta):
        even, odd = _even_odd((1.0, *beta))
        out *= _horner(even, y) ** 2 + y * _horner(odd, y) ** 2
    for a, b in quadratic.tolist():
        out /= (1.0 - b * y) ** 2 + a * a * y
    for c in linear.tolist():
        out /= 1.0 + c * c * y
    for _ in range(2 * (2 * len(quadratic) + len(linear) - len(beta))):
        out *= v
    return out


class _AliasSum:
    """The alias sum of f_Y over a fixed (omega grid, h, K), for any model.

    Holds the alias frequencies W = (omega + 2 pi k) / h, |k| <= K, as W^2
    and log|W|; the grid on which the tail bracket samples f_Y; and, per
    omega, the offsets u = K + 1 +- omega / (2 pi) at which the tail sums
    sum_{i >= 0} (u + i)^{-s} start, as log u and the powers u^{1-n}.
    """

    # an extreme step over- and underflows the alias grid and the tail sums
    # to inf and NaN, and _check_bracket refuses the NaN: numpy's warnings
    # are silenced once per construction and once per evaluation
    @np.errstate(all="ignore")
    def __init__(self, omegas: np.ndarray, step_h: float, K: int):
        if K < 1:
            raise DomainError(f"K must be >= 1, got {K}")
        if len(omegas) * (2 * K + 1) > MAX_GRID_POINTS:
            raise DomainError(f"{len(omegas)} frequencies with K = {K} make more than "
                              f"{MAX_GRID_POINTS} aliases")
        _check_step(step_h)
        if not np.all(np.abs(omegas) <= math.pi):
            raise DomainError("aliased spectra need every omega in [-pi, pi]")
        self.step_h = step_h
        ks = np.arange(-K, K + 1)
        W = (omegas[:, None] + 2 * math.pi * ks[None, :]) / step_h
        self.W2 = W * W
        self.logW = 0.5 * np.log(self.W2)
        self.row_block = max(1, _BLOCK_ELEMENTS // (2 * K + 1))
        w_min = (2 * math.pi * (K + 1) - math.pi) / step_h
        self.tail_grid2 = np.geomspace(w_min, 1e4 * w_min, 256) ** 2
        x = omegas / (2 * math.pi)
        u = np.stack([K + 1 + x, K + 1 - x]).reshape(1, -1)
        self.log_u = np.log(u)
        # u^{1-n}, n = 0, 1, ..., 2 _TAIL_LAWS + 2: the terms of the tail sums
        self.u_powers = u ** (1.0 - np.arange(2 * _TAIL_LAWS + 3)[:, None])
        self.u_min = K + 0.5

    def __call__(self, model: CarfimaModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aliased density per omega, and the bracket (tail_lo, tail_hi) on its tail.

        Every caller that passes a model passes this stationarity gate; the
        factors of alpha(z) come from the roots it computes.
        """
        roots = np.roots(alpha_poly_coeffs(model))
        if not is_stationary(roots):
            raise DomainError("aliased spectrum requires a stationary model")
        return self.evaluate(*_alpha_factors(roots), model.beta, model.H, model.sigma)[:3]

    @np.errstate(all="ignore")
    def evaluate(self, quadratic: np.ndarray, linear: np.ndarray, beta, H: float,
                 sigma: float = 1.0, grad: bool = False):
        """(f, tail_lo, tail_hi, dlog_f) for alpha(z)'s real factors, beta and H.

        f is the truncated sum plus the tail beyond K: the sum of the
        leading power laws of f_Y, clipped into the bracket [tail_lo,
        tail_hi] that holds the exact tail.  Every array has one entry per
        omega.  The sum runs over blocks of rows; every element and every
        row sum is computed exactly as over the full grid.  With grad,
        dlog_f holds d log f / d theta per omega (one row each), for theta =
        (log a_1, log b_1, ..., log c_1, ..., beta_1..beta_q, H); the
        derivative sums accumulate in the same pass.  Otherwise dlog_f is
        None.
        """
        ratio = _ratio_sq(quadratic, linear, beta)
        p = 2 * len(quadratic) + len(linear)
        d = p - len(beta)
        n_theta = p + len(beta) + 1
        h = self.step_h
        e = 1.0 - 2.0 * H
        c = _front_constant(H, sigma)
        if grad:
            tail_ratio, tail_basis, coef = ratio(self.tail_grid2, grad=True)
        else:
            tail_ratio = ratio(self.tail_grid2)
        rows_total = len(self.W2)
        trunc = np.empty(rows_total)
        # with grad, per omega: the sum of the summands over c, and their
        # sums against log|W| and against each basis array of the ratio
        sums = np.empty((rows_total, n_theta + 1)) if grad else None
        for start in range(0, rows_total, self.row_block):
            rows = slice(start, start + self.row_block)
            # |W|^{1-2H}, in place: each block allocates few temporaries; at
            # H = 1/2 it is 1 even where W = 0
            power = np.multiply(self.logW[rows], e) if e else np.zeros_like(self.logW[rows])
            np.exp(power, out=power)
            if not grad:
                trunc[rows] = c * np.einsum("ij,ij->i", power, ratio(self.W2[rows]))
                continue
            value, basis, _ = ratio(self.W2[rows], grad=True)
            term = np.multiply(power, value, out=power)
            sums[rows, 0] = np.einsum("ij->i", term)
            sums[rows, 1] = np.einsum("ij,ij->i", term, self.logW[rows])
            for m, x in enumerate(basis, 2):
                sums[rows, m] = np.einsum("ij,ij->i", term, x)
        # remainder: the |k| > K aliases lie beyond w_min, where f_Y =
        # c |W|^{-s} R(W^2) W^{2(p-q)} with s = 2H-1+2(p-q) > 1, and
        # R(W^2) W^{2(p-q)} = lead sum_j r_j W^{-2j} (_tail_laws) lies between
        # the bracket ends r_lo and r_hi; at W = 2 pi (k + x) / h the sums
        # over k of W^{-s-2j} are (2 pi / h)^{-s-2j} Z_j, Z_j the sum over
        # both offsets u of sum_{i >= 0} (u + i)^{-s-2j}
        s = 2.0 * d - e
        vals = tail_ratio * self.tail_grid2 ** d
        lead, r, dlog_lead, dr = _tail_laws(quadratic, linear, beta)
        r_hi = max(float(vals.max()), lead) * (1 + 1e-3)
        r_lo = min(float(vals.min()), lead) * (1 - 1e-3)
        # a numpy power: inf rather than OverflowError at an extreme h
        base = c / h * np.float64(2 * math.pi / h) ** -s
        rho = (h / (2 * math.pi)) ** (2 * np.arange(_TAIL_LAWS))
        em, d_em = _em_coefficients(s)
        # the laws' sum sum_j r_j rho_j Z_j, Z_0, and with grad the laws' sum
        # per row of dr, and the s-derivatives of the first two
        weights = [(r * rho) @ em, em[0]]
        if grad:
            weights += [*((dr * rho) @ em), (r * rho) @ d_em, d_em[0]]
        series = np.array(weights) @ self.u_powers
        if grad:
            series[-2:] -= self.log_u * series[:2]
        series *= np.exp(-s * self.log_u)  # u^{-s}
        tail_sums = series[:, :rows_total] + series[:, rows_total:]
        laws, Z0 = tail_sums[0], tail_sums[1]
        # Euler-Maclaurin remainder of Z_0 after the B_4 term, for both
        # offsets: 2 zeta(5)/(2 pi)^5 int |d^5/dt^5 (u + t)^{-s}| dt over
        # t >= 0, at the smallest offset u_min
        poly = s * (s + 1) * (s + 2) * (s + 3)
        D0 = 2.0 * _EM_REMAINDER * poly * self.u_min ** (-s - 4)
        two = base * lead * laws
        tail_lo = base * r_lo * (Z0 - D0)
        tail_hi = base * r_hi * (Z0 + D0)
        if grad:
            trunc = c * sums[:, 0]
        f = trunc / h + np.minimum(np.maximum(two, tail_lo), tail_hi)
        if not grad:
            return f, tail_lo, tail_hi, None
        dlog_c = 2.0 * digamma(2.0 * H + 1.0) + math.pi / math.tan(math.pi * H)
        # H enters through c(H) and the exponent s; ds/dH = 2
        dlog_base = dlog_c - 2.0 * math.log(2 * math.pi / h)
        dlaws, dZ0 = tail_sums[-2], tail_sums[-1]
        dD0 = D0 * ((4 * s**3 + 18 * s * s + 22 * s + 6) / poly - math.log(self.u_min))
        dtail = np.empty((rows_total, n_theta))
        dtail[:, :-1] = base * lead * (np.outer(laws, dlog_lead) + tail_sums[2:-2].T)
        dtail[:, -1] = dlog_base * two + 2.0 * base * lead * dlaws
        # where the clip bites, the derivative is the bracket end's, with
        # its argmin or argmax over the tail grid held fixed
        for end, r_end, sign, clipped in ((tail_lo, r_lo, -1.0, two < tail_lo),
                                          (tail_hi, r_hi, 1.0, two > tail_hi)):
            if clipped.any():
                i = np.argmax(sign * vals)  # the grid point that sets r_end, unless lead does
                dlog_r = (coef @ [x[i] for x in tail_basis] if sign * (vals[i] - lead) >= 0
                          else dlog_lead)
                dtail[clipped, :-1] = np.outer(end[clipped], dlog_r)
                dtail[clipped, -1] = (dlog_base * end[clipped] + 2.0 * base * r_end
                                      * (dZ0[clipped] + sign * dD0))
        dtrunc = np.empty((rows_total, n_theta))
        dtrunc[:, :-1] = c * sums[:, 2:] @ coef.T
        # d log c / dH, and d |W|^{1-2H} / dH = -2 log|W| |W|^{1-2H}
        dtrunc[:, -1] = dlog_c * trunc - 2.0 * c * sums[:, 1]
        return f, tail_lo, tail_hi, (dtrunc / h + dtail) / f[:, None]


def _check_bracket(values: np.ndarray, width: np.ndarray, rtol: float) -> None:
    """Raise if the tail bracket exceeds rtol of an aliased value, or is NaN.

    An infinite value (omega = 0, H > 1/2) passes with any finite bracket;
    a NaN value or width (an overflow at an extreme step) never passes.
    """
    loose = ~(width <= rtol * np.abs(values))
    if np.any(loose):
        i = int(np.argmax(loose))
        raise TailBoundTooLooseError(
            f"tail bracket width {width[i]:.3e} exceeds {rtol:.1e} of value {values[i]:.6e}"
        )


def spectrum_table(
    model: CarfimaModel,
    omegas,
    kind: str = "continuous",
    step_h: float | None = None,
    K: int = DEFAULT_ALIAS_K,
) -> SpectrumTable:
    """Tabulate f_Y, or the aliased f_h on a frequency grid inside [-pi, pi].

    An aliased value whose alias-tail bracket is wider than
    DEFAULT_BRACKET_RTOL of it raises TailBoundTooLooseError.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if kind == "continuous":
        values = spectral_density(model, omegas)
        return SpectrumTable(omegas=omegas, values=values, kind=kind)
    if kind != "aliased":
        raise DomainError(f"unknown spectrum kind {kind!r}")
    values, tail_lo, tail_hi = _AliasSum(omegas, step_h, K)(model)
    _check_bracket(values, tail_hi - tail_lo, DEFAULT_BRACKET_RTOL)
    return SpectrumTable(omegas=omegas, values=values, kind=kind, step_h=step_h,
                         truncation_K=K)


def fourier_consistency_check(model: CarfimaModel, lag_grid=(0.0, 1.0, 5.0)) -> dict:
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
        "tolerance": _FOURIER_RTOL,
        "passed": bool(max_dev < _FOURIER_RTOL),
    }
