"""Fractional Gaussian noise: covariances and exact simulation.

The Toeplitz sampler here (circulant embedding, with a Cholesky fallback)
also draws the exact CARFIMA paths.  Its covariance column and circulant
spectrum depend on the model, n and step alone, so a bounded cache
(`_embedding`) builds them once for draws that repeat those.  This module
holds the one rule for a sampling step and the one cap on grid and path
sizes, which the simulators, sample paths, aliased spectra and the CLI
share, and the one block size of the blocked loops, the sampler's and the
alias sum's.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict

import numpy as np
from scipy.linalg import toeplitz

from .errors import DomainError, FactorizationFailureError

# most points a time, lag or frequency grid may have (80 MB of float64)
MAX_GRID_POINTS = 10**7
# elements per pass of a blocked loop (the alias sum, the circulant
# sampler): each temporary holds about 2^15 float64 (256 KB: 992 rows of 33
# aliases at K = 16, 4 rows of 8190 normals at n = 4096), small enough to
# stay in a per-core L2 cache
_BLOCK_ELEMENTS = 2**15
EMBEDDING_EIG_RTOL = 1e-10
# relative diagonal jitters tried in turn when the Toeplitz Cholesky fails
CHOLESKY_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
# bytes of covariance columns and circulant spectra `_embedding` keeps
# between calls, each entry charged its two arrays plus _ENTRY_OVERHEAD
# (array headers, key and dict slot): 127 entries at n = 8192.  An entry
# larger than this is used but not kept.
_CACHE_BYTES = 16 * 2**20
_ENTRY_OVERHEAD = 1024
# key -> (cov, eig, charged bytes), the least recently used first
_cache: OrderedDict = OrderedDict()
_cache_bytes = 0
_cache_lock = threading.Lock()
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


def _check_step(step_h: float | None) -> None:
    """The one rule for a sampling step, of paths, simulators and aliased spectra."""
    if step_h is None or not (math.isfinite(step_h) and step_h > 0):
        raise DomainError(f"step_h must be finite and positive, got {step_h}")


def _check_size(n: int, n_paths: int = 1) -> None:
    """n_paths paths of n values each, at most MAX_GRID_POINTS values in all."""
    if n < 1 or n_paths < 1:
        raise DomainError(f"n and n_paths must be >= 1, got {n} and {n_paths}")
    if n > MAX_GRID_POINTS // n_paths:  # n * n_paths > MAX_GRID_POINTS, without overflow
        raise DomainError(f"bad path size {n} x {n_paths}: more than {MAX_GRID_POINTS} points")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate_fgn(H: float, n: int, dt: float, seed) -> np.ndarray:
    """n fBm increments over steps of length dt, exact in distribution.

    Samples the Toeplitz covariance dt^{2H} gamma_F(k) through
    `_toeplitz_rows`.  Deterministic for a given integer seed.  dt follows
    the step rule of `_check_step`, and n may not exceed MAX_GRID_POINTS.
    """
    _check_h(H)
    _check_size(n)
    _check_step(dt)
    embedding = _embedding(("fgn", H, n, dt),
                           lambda: dt ** (2 * H) * fgn_autocovariance(H, np.arange(n)))
    return _toeplitz_rows(embedding, 1, _as_rng(seed))[0]


def _embedding(key, covariance) -> tuple[np.ndarray, np.ndarray]:
    """(cov, eig) for a sampler key, built by covariance() on a miss.

    cov = gamma(0..n-1) is the array covariance() returns, copied, and eig
    the n half-spectrum eigenvalues of its minimal length-2(n-1)
    circulant; both are read-only.  The key must fix covariance()'s result:
    (model, n, step_h) for exact paths, ("fgn", H, n, dt) for fGn.  Entries
    are kept least recently used first while their charged bytes total at
    most _CACHE_BYTES; a lock guards the map, and two threads that miss on
    one key both build it, the first to finish keeping its entry.  A
    covariance() that raises leaves no entry.
    """
    global _cache_bytes
    with _cache_lock:
        entry = _cache.get(key)
        if entry is not None:
            _cache.move_to_end(key)
            return entry[:2]
    cov = np.array(covariance(), dtype=float)
    eig = np.fft.rfft(np.concatenate([cov, cov[-2:0:-1]])).real.copy()
    cov.setflags(write=False)
    eig.setflags(write=False)
    size = cov.nbytes + eig.nbytes + _ENTRY_OVERHEAD
    if size <= _CACHE_BYTES:
        with _cache_lock:
            if key not in _cache:
                _cache[key] = (cov, eig, size)
                _cache_bytes += size
                while _cache_bytes > _CACHE_BYTES:
                    _cache_bytes -= _cache.popitem(last=False)[1][2]
    return cov, eig


def _clear_cache() -> None:
    """Drop every entry `_embedding` keeps."""
    global _cache_bytes
    with _cache_lock:
        _cache.clear()
        _cache_bytes = 0


def _toeplitz_rows(embedding: tuple[np.ndarray, np.ndarray], n_paths: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n_paths, n) rows with covariance toeplitz(cov), (cov, eig) = embedding.

    embedding comes from `_embedding`: cov = gamma(0..n-1) and eig its
    circulant spectrum.  Circulant embedding (Davies & Harte 1987; Wood &
    Chan 1994) costs O(n log n) per row but draws 2(n-1) normals per row
    where Cholesky draws n, so it is used when n_paths <= n, n >= 2 and the
    minimal length-2(n-1) circulant is PSD to EMBEDDING_EIG_RTOL.  Its rows are
    drawn, mapped by `_circulant_rows` and written out in blocks of about
    _BLOCK_ELEMENTS normals (at least one row), so no temporary spans all
    paths; the blocks draw the same stream, in the same order, as one
    (n_paths, 2(n-1)) draw.  Otherwise the Toeplitz matrix is factored by
    `_cholesky_rows`; a non-PSD embedding also warns.  Padding the
    embedding is not attempted: on the inputs where the minimal one fails,
    padding cost more than the Cholesky it saves.
    """
    cov, eig = embedding
    n = len(cov)
    if 1 < n and n_paths <= n:
        if eig.min() >= -EMBEDDING_EIG_RTOL * eig.max():
            m = 2 * (n - 1)
            out = np.empty((n_paths, n))
            z = np.empty((min(n_paths, max(1, _BLOCK_ELEMENTS // m)), m))
            for start in range(0, n_paths, len(z)):
                block = rng.standard_normal(out=z[: n_paths - start])
                out[start : start + len(block)] = _circulant_rows(eig, block)
            return out
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
    Hermitian spectrum they define is written through a real view of one
    complex buffer, with no complex temporaries, and inverted by one real
    FFT.
    """
    n = len(eig)
    m = 2 * (n - 1)
    scale = np.sqrt(np.clip(eig, 0.0, None) / m)
    inner = scale[1:-1] / np.sqrt(2.0)
    spec = np.empty((z.shape[0], n), dtype=complex)
    parts = spec.view(float)  # Re, Im of each spectrum value in turn
    np.multiply(z[:, 0], scale[0], out=parts[:, 0])
    np.multiply(z[:, 1], scale[-1], out=parts[:, -2])
    parts[:, 1] = parts[:, -1] = 0.0
    np.multiply(z[:, 2:n], inner, out=parts[:, 2:-2:2])
    np.multiply(z[:, n:], -inner, out=parts[:, 3:-2:2])
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
