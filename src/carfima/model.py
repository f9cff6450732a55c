"""CARFIMA(p, H, q) model representation and companion-form state space.

A model is the parameter vector (alpha_0..alpha_p, beta_1..beta_q, H, sigma)
of the stochastic differential equation driving the process.  This module
builds the companion matrix, evaluates the characteristic polynomials,
extracts the eigenstructure used by the closed-form autocovariance, and
decides stationarity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import DomainError

# Closed forms divide by eigenvalue separations; below this relative gap the
# eigen-expansion is refused and callers fall back to quadrature.
EIGEN_SEPARATION_RTOL = 1e-6

# Strictness margin applied to max Re(lambda) when deciding stationarity.
STATIONARITY_MARGIN_RTOL = 1e-10


@dataclass(frozen=True)
class CarfimaModel:
    """Parameter vector of a CARFIMA(p, H, q) process.

    alpha holds (alpha_0, ..., alpha_p): the drift constant followed by the
    autoregressive coefficients.  beta holds (beta_1, ..., beta_q) and is
    empty for q = 0.  Requires finite parameters, sigma > 0, alpha_1 != 0,
    beta_q != 0 when q >= 1, 0 < H < 1 and 0 <= q < p.
    """

    p: int
    q: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    H: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
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
        return cls(
            p=int(d["p"]),
            q=int(d["q"]),
            alpha=tuple(d["alpha"]),
            beta=tuple(d["beta"]),
            H=float(d["H"]),
            sigma=float(d["sigma"]),
        )

    @classmethod
    def from_json(cls, s: str) -> "CarfimaModel":
        return cls.from_dict(json.loads(s))

    def model_hash(self) -> str:
        """Short stable identifier derived from the canonical JSON form."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class CompanionSystem:
    """Companion matrix A and the fixed vectors of the state-space form."""

    A: np.ndarray
    delta_p: np.ndarray
    delta_1: np.ndarray
    beta_vec: np.ndarray

    def __post_init__(self):
        for name in ("A", "delta_p", "delta_1", "beta_vec"):
            arr = getattr(self, name)
            object.__setattr__(self, name, np.asarray(arr, dtype=float))
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class EigenStructure:
    """Companion eigenvalues with their residue weights beta(l)/alpha'(l)."""

    lambdas: np.ndarray
    residues: np.ndarray
    distinct: bool

    def __post_init__(self):
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=complex))
        object.__setattr__(self, "residues", np.asarray(self.residues, dtype=complex))
        self.lambdas.setflags(write=False)
        self.residues.setflags(write=False)


def build_companion(model: CarfimaModel) -> CompanionSystem:
    """Companion-form system matrices for the state equation.

    A carries ones on the superdiagonal and (alpha_1, ..., alpha_p) in its
    last row; beta_vec is (1, beta_1, ..., beta_{p-1}) zero-padded above q.
    """
    p = model.p
    A = np.zeros((p, p))
    if p > 1:
        A[: p - 1, 1:] = np.eye(p - 1)
    A[p - 1, :] = model.alpha[1:]
    delta_p = np.zeros(p)
    delta_p[-1] = 1.0
    delta_1 = np.zeros(p)
    delta_1[0] = 1.0
    beta_vec = np.zeros(p)
    beta_vec[0] = 1.0
    beta_vec[1 : model.q + 1] = model.beta
    return CompanionSystem(A=A, delta_p=delta_p, delta_1=delta_1, beta_vec=beta_vec)


def char_poly_eval(model: CarfimaModel, z: complex) -> tuple[complex, complex, complex]:
    """Evaluate alpha(z), alpha'(z) and beta(z) at a complex point.

    alpha(z) = z^p - alpha_p z^{p-1} - ... - alpha_1 and
    beta(z) = 1 + beta_1 z + ... + beta_q z^q, both by Horner recursion.
    """
    z = complex(z)
    # alpha(z): coefficients highest power first are (1, -alpha_p, ..., -alpha_1)
    a_coeffs = [1.0] + [-a for a in model.alpha[:0:-1]]
    alpha_val = 0j
    alpha_deriv = 0j
    for c in a_coeffs:
        alpha_deriv = alpha_deriv * z + alpha_val
        alpha_val = alpha_val * z + c
    beta_val = 0j
    for b in reversed((1.0,) + model.beta):
        beta_val = beta_val * z + b
    return alpha_val, alpha_deriv, beta_val


def alpha_poly_coeffs(model: CarfimaModel) -> np.ndarray:
    """Coefficients of alpha(z), highest power first, for root finding."""
    return np.array([1.0] + [-a for a in model.alpha[:0:-1]])


def eigen_structure(sys: CompanionSystem, model: CarfimaModel) -> EigenStructure:
    """Eigenvalues of A as roots of alpha(z), with residue weights.

    Sets distinct=False (instead of raising) when the minimum pairwise
    separation drops below EIGEN_SEPARATION_RTOL * (1 + max |lambda|);
    the closed-form autocovariance refuses such structures.
    """
    lambdas = np.roots(alpha_poly_coeffs(model))
    residues = np.empty(model.p, dtype=complex)
    for i, lam in enumerate(lambdas):
        _, a1, b = char_poly_eval(model, lam)
        residues[i] = b / a1 if a1 != 0 else np.inf
    distinct = True
    if model.p > 1:
        sep = np.abs(lambdas[:, None] - lambdas[None, :])
        min_sep = np.min(sep[~np.eye(model.p, dtype=bool)])
        scale = 1.0 + np.max(np.abs(lambdas))
        distinct = bool(min_sep > EIGEN_SEPARATION_RTOL * scale)
    if not np.all(np.isfinite(residues)):
        distinct = False
    return EigenStructure(lambdas=lambdas, residues=residues, distinct=distinct)


def is_stationary(es: EigenStructure) -> bool:
    """True iff every companion eigenvalue has strictly negative real part."""
    scale = 1.0 + float(np.max(np.abs(es.lambdas)))
    return bool(np.max(es.lambdas.real) < -STATIONARITY_MARGIN_RTOL * scale)


def model_is_stationary(model: CarfimaModel) -> bool:
    return is_stationary(eigen_structure(build_companion(model), model))


def stationary_mean(model: CarfimaModel) -> float:
    """Mean of the stationary process, -alpha_0/alpha_1."""
    return -model.alpha[0] / model.alpha[1]


def mean_trajectory(model: CarfimaModel, mu_x0, t: float) -> np.ndarray:
    """Mean state vector at time t >= 0 from initial mean mu_x0.

    mu_{X,t} = e^{At} mu_{X,0} + (alpha_0/alpha_1) (e^{At} - I) delta_1.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    sys = build_companion(model)
    mu_x0 = np.asarray(mu_x0, dtype=float)
    if mu_x0.shape != (model.p,):
        raise DomainError(f"mu_x0 must have shape ({model.p},)")
    eAt = expm(sys.A * t)
    ratio = model.alpha[0] / model.alpha[1]
    return eAt @ mu_x0 + ratio * ((eAt - np.eye(model.p)) @ sys.delta_1)


@dataclass(frozen=True)
class ModelParts:
    """Bundle of the derived objects most operations need together."""

    model: CarfimaModel
    sys: CompanionSystem
    es: EigenStructure
    stationary: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "stationary", is_stationary(self.es))


def prepare(model: CarfimaModel) -> ModelParts:
    sys = build_companion(model)
    es = eigen_structure(sys, model)
    return ModelParts(model=model, sys=sys, es=es)
