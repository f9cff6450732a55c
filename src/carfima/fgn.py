"""Fractional Gaussian noise: covariances, exact simulation, and the
stochastic-integral covariance identities for step functions.

The two kernel-form covariance routes (one for each side of H = 1/2) are
evaluated in closed form for step integrands; together with the direct
increment-covariance double sum they form the oracle pair used to validate
the fractional machinery downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import DomainError, FactorizationFailureError

EMBEDDING_EIG_RTOL = 1e-10
# relative diagonal jitters tried in turn when the Toeplitz Cholesky fails
CHOLESKY_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


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


def fgn_autocovariance(H: float, k: int) -> float:
    """Autocovariance of unit-step fractional Gaussian noise at lag k."""
    _check_h(H)
    k = abs(int(k))
    return 0.5 * (abs(k + 1) ** (2 * H) - 2.0 * abs(k) ** (2 * H) + abs(k - 1) ** (2 * H))


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
    cov = dt ** (2 * H) * np.array([fgn_autocovariance(H, k) for k in range(n)])
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
