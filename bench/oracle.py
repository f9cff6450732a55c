"""The benchmark's own CARFIMA formulas, written apart from the program.

Models are plain dicts in the program's JSON schema:
{"p", "q", "alpha": [alpha_0, ..., alpha_p], "beta": [beta_1, ..., beta_q],
"H", "sigma"}, with alpha(z) = z^p - alpha_p z^{p-1} - ... - alpha_1 and
beta(z) = 1 + beta_1 z + ... + beta_q z^q.  The spectral density is

    f_Y(w) = sigma^2 Gamma(2H+1) sin(pi H) / (2 pi) |w|^{1-2H} |beta(iw)|^2 / |alpha(iw)|^2.

Nothing here imports carfima: these functions make the fit inputs and the
values the program's outputs are checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, zeta

# Aliases summed term by term before the Hurwitz-zeta sum of the leading
# power law takes over.  Halving this to 128 moves the sum by at most 2e-8
# relative on every model here, so the neglected next-order terms of
# |beta/alpha|^2 w^{2(p-q)} are of order 5e-9 at 256.
ALIAS_DIRECT = 256
# harmonics per sample of SpectralSynthesis
OVERSAMPLE = 8


def _modsq_at_iw(coeffs_low_first, w):
    """|P(iw)|^2 for real coefficients c_0 + c_1 z + ..., as real arithmetic."""
    re = np.zeros_like(w)
    im = np.zeros_like(w)
    power = np.ones_like(w)
    for j, c in enumerate(coeffs_low_first):
        # (i w)^j = i^j w^j with i^j cycling 1, i, -1, -i
        if j % 4 == 0:
            re += c * power
        elif j % 4 == 1:
            im += c * power
        elif j % 4 == 2:
            re -= c * power
        else:
            im -= c * power
        power = power * w
    return re * re + im * im


def _poly_coeffs(m):
    alpha = [-a for a in m["alpha"][1:]] + [1.0]  # alpha(z), lowest power first
    beta = [1.0] + list(m["beta"])
    return alpha, beta


def front_constant(m) -> float:
    H = m["H"]
    return m["sigma"] ** 2 * gamma(2 * H + 1) * math.sin(math.pi * H) / (2 * math.pi)


def ratio(m, w):
    """|beta(iw)|^2 / |alpha(iw)|^2."""
    a, b = _poly_coeffs(m)
    return _modsq_at_iw(b, w) / _modsq_at_iw(a, w)


def spectral_density(m, w):
    """f_Y(w) for an array of w; at w = 0 it is 0, the CARMA value or inf."""
    w = np.abs(np.asarray(w, dtype=float))
    out = np.empty_like(w)
    nz = w > 0
    out[nz] = front_constant(m) * w[nz] ** (1 - 2 * m["H"]) * ratio(m, w[nz])
    if m["H"] < 0.5:
        out[~nz] = 0.0
    elif m["H"] == 0.5:
        out[~nz] = front_constant(m) / m["alpha"][1] ** 2
    else:
        out[~nz] = math.inf
    return out


def _alias_sum(m, omegas, h, ks):
    """(1/h) sum_{k in ks} f_Y((omega + 2 pi k) / h)."""
    total = np.zeros_like(omegas)
    for k in ks:
        total += spectral_density(m, (omegas + 2 * math.pi * k) / h)
    return total / h


def _zeta_tail(m, x, h):
    """(1/h) sum_{k > ALIAS_DIRECT} of the leading law C lead w^nu at w = 2 pi (k + x) / h.

    nu = 1 - 2H - 2(p - q); the sum is the Hurwitz zeta function zeta(-nu, .).
    """
    nu = 1 - 2 * m["H"] - 2 * (m["p"] - m["q"])
    lead = m["beta"][-1] ** 2 if m["q"] >= 1 else 1.0
    return front_constant(m) * lead * (2 * math.pi / h) ** nu * zeta(
        -nu, ALIAS_DIRECT + 1 + x) / h


def alias_partial(m, omegas, h, K):
    """(1/h) sum_{|k| <= K} f_Y((omega + 2 pi k) / h)."""
    return _alias_sum(m, np.asarray(omegas, dtype=float), h, range(-K, K + 1))


def aliased_density(m, omegas, h):
    """Converged aliased density f_h(omega) of the h-sampled process.

    Direct sum over |k| <= ALIAS_DIRECT, then the exact sum of the leading
    power law beyond it on both sides.
    """
    x = np.asarray(omegas, dtype=float) / (2 * math.pi)
    return (alias_partial(m, omegas, h, ALIAS_DIRECT)
            + _zeta_tail(m, x, h) + _zeta_tail(m, -x, h))


def periodogram(y):
    """I(w_j) = |sum (y_t - ybar) e^{-i w_j t}|^2 / (2 pi n), j = 1..(n-1)//2."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    coefs = np.fft.rfft(y - y.mean())
    m = (n - 1) // 2
    omegas = 2 * math.pi * np.arange(1, m + 1) / n
    return omegas, np.abs(coefs[1 : m + 1]) ** 2 / (2 * math.pi * n)


def whittle_objective(m, omegas, pgram, h):
    """Profiled Whittle objective m log(mean(I/g)) + sum log g + m, g at sigma = 1."""
    shape = dict(m, sigma=1.0)
    g = aliased_density(shape, omegas, h)
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        return math.inf
    k = len(pgram)
    return k * math.log(float(np.mean(pgram / g))) + float(np.sum(np.log(g))) + k


class SpectralSynthesis:
    """Approximately stationary Gaussian paths from the aliased spectrum.

    The h-sampled process is written as a sum of L = OVERSAMPLE * n
    harmonics at w_j = 2 pi j / L with masses f_h(w_j) 2 pi / L; the cell
    around w = 0 takes the integral of the leading |w|^{1-2H} law instead.
    The paths' autocovariance is then a Riemann sum of the spectral
    integral (returned by acf()), periodic in L, with the right spectrum at
    every Fourier frequency a length-n periodogram sees.
    """

    def __init__(self, m, n, h):
        self.n = n
        L = OVERSAMPLE * n
        j = np.arange(L // 2 + 1)
        omegas = 2 * math.pi * j / L
        half = np.empty(len(j))
        half[1:] = aliased_density(m, omegas[1:], h) * 2 * math.pi / L
        # zero cell: integral of (1/h) C r(0) |w/h|^{1-2H} over |w| < pi/L,
        # plus the other aliases at w = 0
        H = m["H"]
        r0 = 1.0 / m["alpha"][1] ** 2
        lead = 2 * front_constant(m) * r0 / h * h ** (2 * H - 1) * (
            (math.pi / L) ** (2 - 2 * H) / (2 - 2 * H))
        zero = np.zeros(1)
        others = 2 * (_alias_sum(m, zero, h, range(1, ALIAS_DIRECT + 1))
                      + _zeta_tail(m, zero, h))[0]
        half[0] = lead + others * 2 * math.pi / L
        self.masses = np.concatenate([half, half[-2:0:-1]])
        self.amp = np.sqrt(self.masses)

    def paths(self, rng: np.random.Generator, count: int) -> np.ndarray:
        L = len(self.amp)
        out = np.empty((count, self.n))
        for i in range(count):
            z = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            out[i] = np.fft.fft(self.amp * z).real[: self.n]
        return out

    def acf(self, max_lag: int) -> np.ndarray:
        return np.fft.fft(self.masses).real[: max_lag + 1]


def known_mean_acf(paths, max_lag: int) -> np.ndarray:
    """(1/(n-k)) sum_t y_t y_{t+k}, one row per path: the ACF estimate for a
    known mean of 0, the mean of every model here (alpha_0 = 0)."""
    x = np.atleast_2d(paths)
    n = x.shape[1]
    return np.stack([np.einsum("ij,ij->i", x[:, : n - k], x[:, k:]) / (n - k)
                     for k in range(max_lag + 1)], axis=1)


def known_mean_acf_sd(gamma_full: np.ndarray, n: int, max_lag: int) -> np.ndarray:
    """Standard deviation of known_mean_acf for one Gaussian path of length n.

    Var = (1/m^2) sum_{|d| < m} (m - |d|) [gamma(d)^2 + gamma(d+k) gamma(d-k)],
    m = n - k; gamma_full must hold lags 0 .. n + max_lag.
    """
    sd = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        m = n - k
        d = np.arange(-(m - 1), m)
        g = gamma_full[np.abs(d)]
        cross = gamma_full[np.abs(d + k)] * gamma_full[np.abs(d - k)]
        sd[k] = math.sqrt(float(np.sum((m - np.abs(d)) * (g * g + cross))) / m**2)
    return sd
