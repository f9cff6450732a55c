"""Fractional Gaussian noise: covariances and exact simulation.

The Toeplitz sampler here (circulant embedding, with a Cholesky fallback)
also draws the exact CARFIMA paths.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import toeplitz

from .errors import DomainError, FactorizationFailureError

EMBEDDING_EIG_RTOL = 1e-10
# relative diagonal jitters tried in turn when the Toeplitz Cholesky fails
CHOLESKY_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
# binomial-series terms of the fGn covariance for |k| >= 2; at k = 2 the
# 30th is below 1e-18 of the first
_FGN_SERIES_TERMS = 30


def fgn_autocovariance(H: float, k):
    """Autocovariance of unit-step fractional Gaussian noise at lag(s) k.

    k is an int or an array of ints; an int gives a float, an array an
    array of its shape.  The second difference (k+1)^{2H} - 2 k^{2H} +
    (k-1)^{2H} cancels catastrophically at large k, so for |k| >= 2 it is
    summed as its binomial series k^{2H} sum_{j>=1} C(2H, 2j) k^{-2j}.
    Every term has the sign of 2H - 1, so nothing cancels, and at H = 1/2
    the sum is exactly 0.  At k = 1 the value is 2^{2H-1} - 1.
    """
    _check_h(H)
    shape = np.shape(k)
    k = np.abs(np.asarray(k, dtype=np.int64).reshape(-1)).astype(float)
    g = 2 * H
    far = np.maximum(k, 2.0)
    y = far**-2
    coef = g * (g - 1) / 2  # C(g, 2j), from j = 1
    coefs = []
    for j in range(1, _FGN_SERIES_TERMS + 1):
        coefs.append(coef)
        coef *= (g - 2 * j) * (g - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2))
    series = 0.0
    for c in reversed(coefs):
        series = (series + c) * y
    # 2^{2H-1} - 1 at k = 1, without the cancellation near H = 1/2
    out = np.select([k >= 2, k == 1], [far**g * series, np.expm1((g - 1) * np.log(2.0))], 1.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def fbm_cov(H: float, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion at times s, t >= 0."""
    _check_h(H)
    if s < 0 or t < 0:
        raise DomainError("fbm_cov is defined for s, t >= 0")
    return 0.5 * (abs(t) ** (2 * H) + abs(s) ** (2 * H) - abs(t - s) ** (2 * H))


def _check_h(H: float):
    if not 0.0 < H < 1.0:
        raise DomainError(f"H must lie in (0, 1), got {H}")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate_fgn(H: float, n: int, dt: float, seed) -> np.ndarray:
    """n fBm increments over steps of length dt, exact in distribution.

    Samples the Toeplitz covariance dt^{2H} gamma_F(k) through
    `_toeplitz_rows`.  Deterministic for a given integer seed.
    """
    _check_h(H)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    cov = dt ** (2 * H) * fgn_autocovariance(H, np.arange(n))
    return _toeplitz_rows(cov, 1, _as_rng(seed))[0]


def _toeplitz_rows(cov: np.ndarray, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """(n_paths, n) rows with covariance toeplitz(cov), cov = gamma(0..n-1).

    Circulant embedding (Davies & Harte 1987; Wood & Chan 1994) costs
    O(n log n) per row but draws 2(n-1) normals per row where Cholesky
    draws n, so it is used when n_paths <= n, n >= 2 and the minimal
    length-2(n-1) circulant is PSD to EMBEDDING_EIG_RTOL.  Otherwise the
    Toeplitz matrix is factored by `_cholesky_rows`; a non-PSD embedding
    also warns.  Padding the embedding is not attempted: on the inputs
    where the minimal one fails, padding cost more than the Cholesky it
    saves.
    """
    n = len(cov)
    if 1 < n and n_paths <= n:
        eig = np.fft.rfft(np.concatenate([cov, cov[-2:0:-1]])).real
        if eig.min() >= -EMBEDDING_EIG_RTOL * eig.max():
            return _circulant_rows(eig, rng.standard_normal((n_paths, 2 * (n - 1))))
        warnings.warn(
            "circulant embedding not PSD (min/max eigenvalue "
            f"{eig.min() / eig.max():.3e}); falling back to Toeplitz Cholesky",
            stacklevel=3,
        )
    return _cholesky_rows(cov, n_paths, rng)


def _circulant_rows(eig: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows of z, standard normal (k, 2(n-1)), mapped through the embedding.

    eig holds the n half-spectrum eigenvalues of the circulant.  Each row
    of z is laid out [w_0, w_{n-1}, Re w_1..w_{n-2}, Im w_1..w_{n-2}]; the
    Hermitian spectrum they define is inverted by one real FFT.
    """
    n = len(eig)
    m = 2 * (n - 1)
    scale = np.sqrt(np.clip(eig, 0.0, None) / m)
    spec = np.empty((z.shape[0], n), dtype=complex)
    spec[:, 0] = scale[0] * z[:, 0]
    spec[:, -1] = scale[-1] * z[:, 1]
    spec[:, 1:-1] = scale[1:-1] / np.sqrt(2.0) * (z[:, 2:n] - 1j * z[:, n:])
    return np.fft.irfft(spec, m, norm="forward")[:, :n]


def _cholesky_rows(cov: np.ndarray, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Toeplitz Cholesky rows, with the diagonal jittered only on failure."""
    n = len(cov)
    T = toeplitz(cov)
    for jitter in CHOLESKY_JITTERS:
        T.flat[:: n + 1] = cov[0] * (1.0 + jitter)
        try:
            L = np.linalg.cholesky(T)
        except np.linalg.LinAlgError:
            continue
        return (L @ rng.standard_normal((n, n_paths))).T
    raise FactorizationFailureError(
        "Toeplitz covariance not factorizable after jitter escalation; "
        "this indicates an autocovariance computation bug"
    )
