"""Shared fixtures and randomized model generation for the test suite."""

import numpy as np
import pytest

from carfima import CarfimaModel
from carfima.fgn import _clear_cache


def car1(H, a1=-1.0, sigma=1.0, a0=0.0):
    return CarfimaModel(p=1, q=0, alpha=(a0, a1), beta=(), H=H, sigma=sigma)


def model_from_eigenvalues(lambdas, q=0, beta=(), H=0.5, sigma=1.0, a0=0.0):
    """Build a model whose companion matrix has the given eigenvalues."""
    poly = np.poly(np.asarray(lambdas, dtype=complex))
    alpha_ar = tuple((-poly[:0:-1]).real)
    return CarfimaModel(p=len(lambdas), q=q, alpha=(a0, *alpha_ar), beta=tuple(beta),
                        H=H, sigma=sigma)


def random_stable_model(rng, p_max=3, H_choices=(0.1, 0.3, 0.55, 0.7, 0.9),
                        H=None, min_sep=0.15):
    """Random stationary model with well-separated eigenvalues."""
    p = int(rng.integers(1, p_max + 1))
    while True:
        lams = []
        remaining = p
        while remaining:
            if remaining >= 2 and rng.random() < 0.4:
                re = -rng.uniform(0.25, 2.0)
                im = rng.uniform(0.3, 2.0)
                lams += [complex(re, im), complex(re, -im)]
                remaining -= 2
            else:
                lams.append(complex(-rng.uniform(0.2, 2.5), 0.0))
                remaining -= 1
        lams = np.array(lams)
        if p == 1:
            break
        sep = np.abs(lams[:, None] - lams[None, :])
        if np.min(sep[~np.eye(p, dtype=bool)]) > min_sep:
            break
    q = int(rng.integers(0, p))
    beta = list(rng.uniform(-0.6, 0.6, q))
    if q:
        beta[-1] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.8))
    Hval = float(H if H is not None else rng.choice(H_choices))
    sigma = float(rng.uniform(0.5, 2.0))
    return model_from_eigenvalues(lams, q=q, beta=beta, H=Hval, sigma=sigma)


@pytest.fixture(autouse=True)
def _empty_sampler_cache():
    """Start each test with no cached covariance, so a monkeypatched ACF
    cannot leave an entry that a later test draws from."""
    _clear_cache()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ou_model():
    """CAR(1) at the Brownian point: the classical OU process."""
    return car1(0.5)
