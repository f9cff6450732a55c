"""CARFIMA(p, H, q) model representation and companion-form state space.

A model is the parameter vector (alpha_0..alpha_p, beta_1..beta_q, H, sigma)
of the stochastic differential equation driving the process.  This module
evaluates the characteristic polynomials, decides stationarity, and
derives in one record (prepare) the companion matrix and the eigenvalues
that the autocovariance, spectrum and simulation routes read.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError

# Closed forms divide by eigenvalue separations; below this relative gap the
# eigen-expansion is refused and callers fall back to quadrature.
EIGEN_SEPARATION_RTOL = 1e-6

# Strictness margin applied to max Re(lambda) when deciding stationarity.
STATIONARITY_MARGIN_RTOL = 1e-10

# Largest |beta_j|.  |beta(iw)|^2 sums the products beta_i beta_j, and the
# spectra and autocovariances scale with it: squares up to 1e200 leave a
# factor 1e108 of float64's range to the rest of the model, where
# coefficients near 1e154 overflowed and escaped as OverflowError.
_MAX_BETA = 1e100


@dataclass(frozen=True)
class CarfimaModel:
    """Parameter vector of a CARFIMA(p, H, q) process.

    alpha holds (alpha_0, ..., alpha_p): the drift constant followed by the
    autoregressive coefficients.  beta holds (beta_1, ..., beta_q) and is
    empty for q = 0.  Requires finite parameters, sigma > 0, alpha_1 != 0,
    beta_q != 0 when q >= 1, 0 < H < 1 and 0 <= q < p; a parameter that is
    not a number (or a p or q that is not an integer) raises DomainError.
    Each |beta_j| may be at most 1e100 (_MAX_BETA).
    """

    p: int
    q: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    H: float
    sigma: float

    def __post_init__(self):
        try:
            fields = {"p": operator.index(self.p), "q": operator.index(self.q),
                      "alpha": tuple(float(a) for a in self.alpha),
                      "beta": tuple(float(b) for b in self.beta),
                      "H": float(self.H), "sigma": float(self.sigma)}
        except (TypeError, ValueError) as exc:
            raise DomainError(f"model parameters must be numbers: {exc}") from exc
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not all(math.isfinite(v) for v in (*self.alpha, *self.beta, self.H, self.sigma)):
            raise DomainError("alpha, beta, H and sigma must be finite")
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if not 0 <= self.q < self.p:
            raise DomainError(f"q must satisfy 0 <= q < p, got q={self.q}, p={self.p}")
        if len(self.alpha) != self.p + 1:
            raise DomainError(
                f"alpha must have length p+1={self.p + 1}, got {len(self.alpha)}"
            )
        if len(self.beta) != self.q:
            raise DomainError(f"beta must have length q={self.q}, got {len(self.beta)}")
        if self.alpha[1] == 0.0:
            raise DomainError("alpha_1 must be nonzero")
        if self.q >= 1 and self.beta[-1] == 0.0:
            raise DomainError("beta_q must be nonzero when q >= 1")
        if any(abs(b) > _MAX_BETA for b in self.beta):
            raise DomainError(f"each |beta_j| must be at most {_MAX_BETA:g}, got {self.beta}")
        if not 0.0 < self.H < 1.0:
            raise DomainError(f"H must lie in (0, 1), got {self.H}")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "H": self.H,
            "sigma": self.sigma,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "CarfimaModel":
        return cls(**{k: d[k] for k in ("p", "q", "alpha", "beta", "H", "sigma")})

    @classmethod
    def from_json(cls, s: str) -> "CarfimaModel":
        return cls.from_dict(json.loads(s))

    def model_hash(self) -> str:
        """Short stable identifier derived from the canonical JSON form."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def char_poly_eval(model: CarfimaModel, z: complex) -> tuple[complex, complex, complex]:
    """Evaluate alpha(z), alpha'(z) and beta(z) at a complex point.

    alpha(z) = z^p - alpha_p z^{p-1} - ... - alpha_1 and
    beta(z) = 1 + beta_1 z + ... + beta_q z^q, both by Horner recursion.
    """
    z = complex(z)
    alpha_val = 0j
    alpha_deriv = 0j
    for c in alpha_poly_coeffs(model):
        alpha_deriv = alpha_deriv * z + alpha_val
        alpha_val = alpha_val * z + c
    beta_val = 0j
    for b in beta_poly_coeffs(model):
        beta_val = beta_val * z + b
    return alpha_val, alpha_deriv, beta_val


def alpha_poly_coeffs(model: CarfimaModel) -> tuple[float, ...]:
    """Coefficients (1, -alpha_p, ..., -alpha_1) of alpha(z), highest power first."""
    return (1.0, *[-a for a in model.alpha[:0:-1]])


def beta_poly_coeffs(model: CarfimaModel) -> tuple[float, ...]:
    """Coefficients (beta_q, ..., beta_1, 1) of beta(z), highest power first."""
    return (1.0, *model.beta)[::-1]


def is_stationary(lambdas: np.ndarray) -> bool:
    """True iff every companion eigenvalue has strictly negative real part."""
    scale = 1.0 + float(np.max(np.abs(lambdas)))
    return bool(np.max(lambdas.real) < -STATIONARITY_MARGIN_RTOL * scale)


def stationary_mean(model: CarfimaModel) -> float:
    """Mean of the stationary process, -alpha_0/alpha_1."""
    return -model.alpha[0] / model.alpha[1]


def mean_trajectory(model: CarfimaModel, mu_x0, t: float) -> np.ndarray:
    """Mean state vector at time t >= 0 from initial mean mu_x0.

    mu_{X,t} = e^{At} mu_{X,0} + (alpha_0/alpha_1) (e^{At} - I) e_1.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    mu_x0 = np.asarray(mu_x0, dtype=float)
    if mu_x0.shape != (model.p,):
        raise DomainError(f"mu_x0 must have shape ({model.p},)")
    eAt = expm(prepare(model).A * t)
    ratio = model.alpha[0] / model.alpha[1]
    return eAt @ mu_x0 + ratio * (eAt - np.eye(model.p))[:, 0]


@dataclass(frozen=True)
class ModelParts:
    """What prepare derives from a model: its companion form and eigenvalues.

    A carries ones on the superdiagonal and (alpha_1, ..., alpha_p) in its
    last row; beta_vec is (1, beta_1, ..., beta_{p-1}) zero-padded above q;
    delta_p is the last unit vector.  lambdas are the roots of alpha(z), the
    eigenvalues of A.  distinct is False when their minimum pairwise
    separation drops below EIGEN_SEPARATION_RTOL * (1 + max |lambda|), where
    the closed-form autocovariance refuses them; stationary is
    is_stationary(lambdas).
    """

    A: np.ndarray
    beta_vec: np.ndarray
    delta_p: np.ndarray
    lambdas: np.ndarray
    distinct: bool
    stationary: bool


def prepare(model: CarfimaModel) -> ModelParts:
    """The companion form and eigenvalues of a model, as read-only arrays."""
    p = model.p
    A = np.zeros((p, p))
    if p > 1:
        A[: p - 1, 1:] = np.eye(p - 1)
    A[p - 1, :] = model.alpha[1:]
    delta_p = np.zeros(p)
    delta_p[-1] = 1.0
    beta_vec = np.zeros(p)
    beta_vec[0] = 1.0
    beta_vec[1 : model.q + 1] = model.beta
    lambdas = np.asarray(np.roots(alpha_poly_coeffs(model)), dtype=complex)
    distinct = True
    if p > 1:
        sep = np.abs(lambdas[:, None] - lambdas[None, :])
        min_sep = np.min(sep[~np.eye(p, dtype=bool)])
        distinct = bool(min_sep > EIGEN_SEPARATION_RTOL * (1.0 + np.max(np.abs(lambdas))))
    for arr in (A, beta_vec, delta_p, lambdas):
        arr.setflags(write=False)
    return ModelParts(A=A, beta_vec=beta_vec, delta_p=delta_p, lambdas=lambdas,
                      distinct=distinct, stationary=is_stationary(lambdas))
