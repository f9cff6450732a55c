"""Regularly sampled stationary paths, two ways.

The exact simulator samples the Toeplitz covariance built from the
autocovariance routes: by circulant embedding, O(n log n) per path, or by
its Cholesky factor when the embedding is not PSD or more paths than lags
are asked for.  The approximate simulator discretizes the state equation
with an exact-in-A exponential step driven by fractional Gaussian noise
increments at sub-step resolution.  Their agreement is itself a test of
the covariance theory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .acf import _write_csv, autocovariance
from .errors import DomainError
from .fgn import _toeplitz_rows, simulate_fgn
from .model import CarfimaModel, prepare, stationary_mean


@dataclass(frozen=True)
class SamplePath:
    """A regularly sampled realization with its generation metadata."""

    values: np.ndarray
    step_h: float
    model_hash: str
    seed: int
    method: str  # exact_gaussian | state_euler

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 1:
            raise DomainError("a sample path needs at least one value")
        if not np.all(np.isfinite(values)):
            raise DomainError("sample path values must be finite")
        if self.step_h <= 0:
            raise DomainError(f"step_h must be positive, got {self.step_h}")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.values)

    def to_csv(self, path, model: CarfimaModel | None = None) -> None:
        """Write "t,y" rows, t = h, 2h, ..., and the metadata to path + ".meta.json"."""
        _write_csv(path, ["t", "y"], (np.arange(1, self.n + 1) * self.step_h, self.values))
        meta = {
            "model": model.to_dict() if model is not None else None,
            "h": self.step_h,
            "n": self.n,
            "seed": self.seed,
            "method": self.method,
        }
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)


def read_path_csv(path) -> tuple[np.ndarray, float]:
    """Values and inferred step size from a "t,y" CSV."""
    ts, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ts.append(float(row["t"]))
            ys.append(float(row["y"]))
    if len(ys) < 2:
        raise DomainError("path CSV needs at least two rows")
    steps = np.diff(ts)
    h = float(np.median(steps))
    if np.max(np.abs(steps - h)) > 1e-8 * h:
        raise DomainError("path CSV is not regularly sampled")
    return np.array(ys), h


def exact_gaussian_paths(
    model: CarfimaModel, n: int, step_h: float, n_paths: int, seed: int
) -> np.ndarray:
    """(n_paths, n) matrix of independent exact stationary paths.

    The Toeplitz covariance of lags 0, h, ..., (n-1)h is sampled by
    circulant embedding when n_paths <= n and the embedding is PSD, and by
    one Cholesky factor shared by all paths otherwise.  The Gaussian block
    is drawn from a generator seeded by SeedSequence(seed), so results are
    reproducible and independent of how callers parallelize downstream.
    """
    if n < 1 or n_paths < 1:
        raise DomainError("n and n_paths must be >= 1")
    table = autocovariance(model, np.arange(n) * step_h, method="auto")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return stationary_mean(model) + _toeplitz_rows(table.values, n_paths, rng)


def simulate_exact(model: CarfimaModel, n: int, step_h: float, seed: int) -> SamplePath:
    """One exact stationary path of length n with sampling step step_h."""
    values = exact_gaussian_paths(model, n, step_h, 1, seed)[0]
    return SamplePath(values=values, step_h=step_h, model_hash=model.model_hash(),
                      seed=seed, method="exact_gaussian")


def simulate_state_euler(
    model: CarfimaModel, n: int, step_h: float, substeps: int, seed: int
) -> SamplePath:
    """Path from discretizing the state equation with fGn increments.

    Sub-step size D = step_h/substeps; the deterministic part advances with
    the exact propagator e^{AD}, the noise enters as sigma e^{AD/2} delta_p
    dB^H (midpoint treatment of the convolution kernel).  A burn-in of
    max(100, 20/|max Re lambda|) time units is discarded and the state
    starts at the stationary mean.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if substeps < 1:
        raise DomainError(f"substeps must be >= 1, got {substeps}")
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("state simulation requires a stationary model")
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
    beta_vec = parts.beta_vec
    out = np.empty(n)
    j = 0
    for k in range(total):
        x = prop @ x + drift + noise_vec * db[k]
        rel = k + 1 - burn
        if rel > 0 and rel % substeps == 0:
            out[j] = beta_vec @ x
            j += 1
    return SamplePath(values=out, step_h=step_h, model_hash=model.model_hash(),
                      seed=seed, method="state_euler")


def empirical_acf(paths: np.ndarray, max_lag: int, mean: float) -> np.ndarray:
    """Known-mean sample autocovariances, one row per path.

    Uses the true process mean so the estimator is exactly unbiased
    (demeaning per path would bias long-memory paths at O(n^{2H-2})).
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=float)) - mean
    n = paths.shape[1]
    if not 0 <= max_lag < n:
        raise DomainError("max_lag must satisfy 0 <= max_lag < n")
    out = np.empty((paths.shape[0], max_lag + 1))
    for k in range(max_lag + 1):
        out[:, k] = np.mean(paths[:, : n - k] * paths[:, k:], axis=1)
    return out
