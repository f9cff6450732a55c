"""Regularly sampled stationary paths, two ways.

The exact simulator samples the Toeplitz covariance built from the
autocovariance routes: by circulant embedding, O(n log n) per path, or by
its Cholesky factor when the embedding is not PSD or more paths than lags
are asked for.  The approximate simulator discretizes the state equation
with an exact-in-A exponential step driven by fractional Gaussian noise
increments at sub-step resolution; that linear recursion runs as a blocked
scan, one lower-triangular Toeplitz product per block of increments and
one carried state per block.  Their agreement is itself a test of the
covariance theory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, toeplitz

from .acf import _write_csv, autocovariance
from .errors import DomainError
from .fgn import (MAX_GRID_POINTS, _check_size, _check_step, _embedding, _toeplitz_rows,
                  simulate_fgn)
from .model import CarfimaModel, prepare, stationary_mean

# sub-steps per block of the state scan: the Toeplitz product costs O(L)
# per sub-step, the loop over blocks total/L iterations
_SCAN_BLOCK = 128


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
        _check_step(self.step_h)
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
    """Values and inferred step size from a "t,y" CSV.

    A file that is not UTF-8 text, lacks a t or y column, or has a short
    row or a cell that is not a number raises DomainError.
    """
    ts, ys = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # a short row's missing cells read as "", which float refuses
            for row in csv.DictReader(fh, restval=""):
                ts.append(float(row["t"]))
                ys.append(float(row["y"]))
    except KeyError as exc:
        raise DomainError(f"path CSV {path} has no column {exc}") from exc
    except (ValueError, csv.Error) as exc:  # ValueError covers bytes that are not UTF-8
        raise DomainError(f"malformed path CSV {path}: {exc}") from exc
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
    The covariance and its circulant spectrum are built once per (model,
    n, step_h) and kept in `fgn._embedding`'s bounded cache, so a repeated
    draw costs only its normals and FFTs, with the same bits.
    n * n_paths may not exceed MAX_GRID_POINTS.
    """
    _check_size(n, n_paths)
    _check_step(step_h)
    embedding = _embedding(
        (model, n, step_h),
        lambda: autocovariance(model, np.arange(n) * step_h, method="auto").values)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    paths = _toeplitz_rows(embedding, n_paths, rng)
    paths += stationary_mean(model)
    return paths


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
    the exact propagator P = e^{AD}, the noise enters as v xi_k with
    v = sigma e^{AD/2} delta_p and xi_k the fGn increment of sub-step k
    (midpoint treatment of the convolution kernel).  The state starts at
    the stationary mean x* = -(alpha_0/alpha_1) e_1, the fixed point of
    the drift, so e_k = x_k - x* follows e_{k+1} = P e_k + v xi_k from
    e_0 = 0.  That recursion runs as a blocked scan (`_state_scan`), with
    no loop over sub-steps.  A burn-in of max(100, 20/|max Re lambda|)
    time units is discarded; burn-in plus n * substeps sub-steps may not
    exceed MAX_GRID_POINTS.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if substeps < 1:
        raise DomainError(f"substeps must be >= 1, got {substeps}")
    _check_step(step_h)
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("state simulation requires a stationary model")
    delta = step_h / substeps
    decay = abs(float(np.max(parts.lambdas.real)))
    # a float division overflows to inf; only a zero divisor raises
    burn_steps = max(100.0, 20.0 / decay) / delta if delta > 0 else math.inf
    if burn_steps + n * substeps > MAX_GRID_POINTS:
        raise DomainError(
            f"burn-in of {burn_steps:.3g} sub-steps plus n * substeps = {n * substeps} "
            f"exceeds {MAX_GRID_POINTS} sub-steps")
    burn = math.ceil(burn_steps)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xi = simulate_fgn(model.H, burn + n * substeps, delta, rng)
    A = parts.A
    noise_vec = model.sigma * (expm(A * delta / 2.0) @ parts.delta_p)
    e = _state_scan(expm(A * delta), noise_vec, parts.beta_vec, xi)
    out = stationary_mean(model) + e[burn + substeps - 1 :: substeps]
    return SamplePath(values=out, step_h=step_h, model_hash=model.model_hash(),
                      seed=seed, method="state_euler")


def _state_scan(P: np.ndarray, v: np.ndarray, c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """c^T e_{k+1}, k = 0..len(xi)-1, for e_{k+1} = P e_k + v xi_k from e_0 = 0.

    xi is cut into blocks of L = _SCAN_BLOCK (the last one zero-padded).
    Within block b, starting from s_b = e_{bL},

        c^T e_{bL+j+1} = sum_{i<=j} h_{j-i} xi_{bL+i} + c^T P^{j+1} s_b,

    with the impulse response h_m = c^T P^m v.  The first sum is one
    lower-triangular Toeplitz product over all blocks at once, and
    s_{b+1} = P^L s_b + sum_i P^{L-1-i} v xi_{bL+i} is one product for the
    block sums plus one loop over the blocks.  Only powers of P are used:
    a transfer-function filter drifts on clustered roots and an
    eigen-decomposition fails on repeated ones.
    """
    L = _SCAN_BLOCK
    p, total = len(v), len(xi)
    blocks = np.zeros((-(-total // L), L))
    blocks.flat[:total] = xi
    Pv = np.empty((L, p))  # row m: P^m v
    cP = np.empty((L, p))  # row j: c^T P^{j+1}
    row, col = v, c @ P
    for m in range(L):
        Pv[m], cP[m] = row, col
        row, col = P @ row, col @ P
    local = blocks @ np.tril(toeplitz(Pv @ c)).T
    block_sums = blocks @ Pv[::-1]
    PL = np.linalg.matrix_power(P, L)
    starts = np.empty_like(block_sums)
    s = np.zeros(p)
    for b, block_sum in enumerate(block_sums):
        starts[b] = s
        s = PL @ s + block_sum
    return (local + starts @ cP.T).ravel()[:total]


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
    for k in range(max_lag + 1):  # one row-wise dot product per lag, no temporaries
        out[:, k] = np.einsum("ij,ij->i", paths[:, : n - k], paths[:, k:]) / (n - k)
    return out
