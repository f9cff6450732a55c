import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from carfima import (
    CarfimaModel,
    DomainError,
    Periodogram,
    SamplePath,
    TailBoundTooLooseError,
    aliased_spectrum_detail,
    exact_gaussian_paths,
    fit,
    periodogram,
    profile_sigma2,
    simulate_exact,
    spectral_density,
    whittle_objective,
)
from carfima.estimate import _alpha_coeffs, _alpha_jacobian, _profiled, _split
from carfima.spectrum import DEFAULT_ALIAS_K, _AliasSum

from conftest import car1, model_from_eigenvalues


def _path(values, h=1.0):
    return SamplePath(values=np.asarray(values, dtype=float), step_h=h,
                      model_hash="test", seed=0, method="exact_gaussian")


class TestPeriodogram:
    def test_constant_series_all_zero(self):
        pg = periodogram(_path(np.full(64, 3.7)))
        assert np.all(pg.values == 0.0)

    def test_single_cosine_concentrates(self):
        n, j0 = 256, 10
        k = np.arange(n)
        pg = periodogram(_path(np.cos(2 * math.pi * j0 * k / n)))
        assert int(np.argmax(pg.values)) == j0 - 1  # grid starts at j = 1
        others = np.delete(pg.values, j0 - 1)
        assert np.max(others) < 1e-12 * pg.values[j0 - 1]

    def test_white_noise_flat_level(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4096)
        pg = periodogram(_path(y))
        mean_level = float(pg.values.mean()) * 2 * math.pi
        var = float(np.var(y))
        assert mean_level == pytest.approx(var, rel=4 / math.sqrt(len(pg.values)))

    def test_frequency_grid(self):
        pg = periodogram(_path(np.random.default_rng(0).standard_normal(101)))
        assert len(pg.omegas) == 50
        assert pg.omegas[0] == pytest.approx(2 * math.pi / 101)

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            periodogram(_path(np.zeros(8)))


class TestWhittleObjective:
    def test_true_model_beats_perturbed_H(self):
        m = car1(0.7)
        wins = 0
        reps = 20
        for r in range(reps):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=900 + r))
            at_true = whittle_objective(pg, m)
            worse = min(
                whittle_objective(pg, car1(0.55)),
                whittle_objective(pg, car1(0.85)),
            )
            wins += at_true < worse
        assert wins >= reps // 2 + 1  # median over replications

    def test_finite_for_antipersistent_near_zero(self):
        m = car1(0.25)
        pg = periodogram(simulate_exact(m, 512, 1.0, seed=4))
        assert math.isfinite(whittle_objective(pg, m))

    def test_profile_sigma2_matches_numerical(self):
        m = car1(0.7)
        pg = periodogram(simulate_exact(m, 2048, 1.0, seed=12))
        s2_hat = profile_sigma2(pg, m)
        res = minimize_scalar(
            lambda s2: whittle_objective(
                pg, car1(0.7, sigma=math.sqrt(s2))),
            bracket=(0.5 * s2_hat, s2_hat, 2.0 * s2_hat),
        )
        assert s2_hat == pytest.approx(res.x, rel=1e-6)

    def test_profile_sigma2_is_optimal_on_grid(self):
        m = car1(0.3)
        pg = periodogram(simulate_exact(m, 1024, 1.0, seed=3))
        s2_hat = profile_sigma2(pg, m)
        best = whittle_objective(pg, car1(0.3, sigma=math.sqrt(s2_hat)))
        for f in np.linspace(0.6, 1.6, 10):
            other = whittle_objective(pg, car1(0.3, sigma=math.sqrt(f * s2_hat)))
            assert best <= other + 1e-10

    def test_mean_shift_invariance(self):
        m = car1(0.7)
        path = simulate_exact(m, 512, 1.0, seed=6)
        shifted = _path(path.values + 17.3)
        a = whittle_objective(periodogram(path), m)
        b = whittle_objective(periodogram(shifted), m)
        assert a == pytest.approx(b, rel=1e-12)

    def test_identifiability_separation(self):
        # objective at the generating model beats a distinct model
        m = car1(0.7)
        other = car1(0.3, a1=-0.5)
        wins = 0
        for r in range(20):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=700 + r))
            wins += whittle_objective(pg, m) < whittle_objective(pg, other)
        assert wins >= 19

    def test_nonstationary_rejected(self):
        pg = periodogram(_path(np.random.default_rng(1).standard_normal(256)))
        with pytest.raises(DomainError):
            whittle_objective(pg, car1(0.7, a1=0.4))

    def test_profile_sigma2_rejects_nonstationary(self):
        # root +0.5: the alias sum's stationarity gate refuses it
        pg = Periodogram(omegas=np.array([0.5]), values=np.array([1.0]), n=3, step_h=1.0)
        with pytest.raises(DomainError):
            profile_sigma2(pg, car1(0.5, a1=0.5))

    def test_matches_objective_from_printed_aliased_spectrum(self):
        # a resonance at 50 rad/s lies inside the tail bracket's grid at K = 2,
        # so the bracket depends on where that grid samples the ratio
        m = model_from_eigenvalues([-1 + 50j, -1 - 50j, -2.0], H=0.3)
        pg = periodogram(_path(np.random.default_rng(0).standard_normal(256)))
        f = np.array([aliased_spectrum_detail(m, float(w), 1.0, K=2,
                                              bracket_rtol=math.inf).value
                      for w in pg.omegas])
        expected = float(np.sum(np.log(f) + pg.values / f))
        assert whittle_objective(pg, m, K=2) == pytest.approx(expected, rel=1e-12)


class TestFit:
    def test_recovery_smoke(self):
        m = car1(0.7)
        path = simulate_exact(m, 2048, 1.0, seed=42)
        r = fit(path, 1, 0, seed=1, n_starts=2)
        assert r.stationarity_ok
        assert r.model_hat.H > 0.5
        assert abs(r.model_hat.H - 0.7) < 0.12
        assert abs(r.model_hat.sigma - 1.0) < 0.3

    def test_deterministic_given_seed(self):
        m = car1(0.3)
        path = simulate_exact(m, 1024, 1.0, seed=9)
        a = fit(path, 1, 0, seed=3, n_starts=2)
        b = fit(path, 1, 0, seed=3, n_starts=2)
        assert a.to_json() == b.to_json()

    def test_init_respected(self):
        m = car1(0.7)
        path = simulate_exact(m, 1024, 1.0, seed=2)
        r = fit(path, 1, 0, init=car1(0.65), seed=0, n_starts=2)
        assert r.model_hat.H > 0.5

    def test_init_of_other_order_or_nonstationary_rejected(self):
        path = simulate_exact(car1(0.7), 256, 1.0, seed=1)
        with pytest.raises(DomainError, match="orders"):
            fit(path, 2, 0, init=car1(0.7), n_starts=1)
        with pytest.raises(DomainError, match="stationary"):
            fit(path, 1, 0, init=car1(0.7, a1=0.5), n_starts=1)

    def test_logit_below_exp_range_does_not_overflow(self):
        # the old simplex over logit H drove the logit below -709.78 on this
        # path, where an unguarded math.exp(-x) raised OverflowError; H now
        # moves inside box bounds
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3,
                         sigma=1.0)
        path = _path(exact_gaussian_paths(m, 4096, 1.0, 2, seed=5)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = fit(path, 2, 1, seed=0, n_starts=4)
        assert 0.0 < r.model_hat.H < 1.0

    def test_result_json_fields(self):
        m = car1(0.7)
        path = simulate_exact(m, 512, 1.0, seed=2)
        r = fit(path, 1, 0, seed=0, n_starts=1)
        d = json.loads(r.to_json())
        assert set(d) == {"model", "objective", "converged", "iterations", "stderr"}
        CarfimaModel.from_dict(d["model"])

    def test_bad_orders_rejected(self):
        path = _path(np.random.default_rng(0).standard_normal(256))
        with pytest.raises(DomainError):
            fit(path, 0, 0)
        with pytest.raises(DomainError):
            fit(path, 1, 1)

    def test_fast_root_estimate_raises(self):
        # alpha(z) = z^2 + 0.5 z + 1e6: roots -0.25 +- 1000i at h = 1, far
        # beyond the explicit aliases, where the tail bracket is as wide as
        # the spectrum; a fit started there stays there and must not return
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1e6, -0.5), beta=(0.4,), H=0.3, sigma=1.0)
        path = _path(exact_gaussian_paths(m, 512, 1.0, 1, seed=0)[0])
        with pytest.raises(TailBoundTooLooseError):
            fit(path, 2, 1, init=m, n_starts=1)

    def test_constant_path_rejected(self):
        with pytest.raises(DomainError, match="constant"):
            fit(_path(np.ones(64)), 1, 0)

    def test_carfima_2_1_recovery(self):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.7, sigma=1.0)
        path = _path(exact_gaussian_paths(m, 4096, 1.0, 1, seed=31)[0])
        r = fit(path, 2, 1, seed=0, n_starts=4)
        assert r.converged
        assert r.stationarity_ok
        truth = whittle_objective(periodogram(path), CarfimaModel(
            p=2, q=1, alpha=m.alpha, beta=m.beta, H=m.H,
            sigma=math.sqrt(profile_sigma2(periodogram(path), m))))
        assert r.objective_value <= truth

    def test_stderr_of_h_matches_central_differences(self):
        # the first criterion-9 path at H0 = 0.7; the oracle differentiates the
        # printed aliased spectrum numerically at the fitted model
        from test_acceptance import _whittle_sd_h

        paths = exact_gaussian_paths(car1(0.7), 4096, 1.0, 50, seed=21)
        r = fit(_path(paths[0]), 1, 0, seed=0, n_starts=4)
        assert len(r.stderr) == 2
        oracle = _whittle_sd_h(r.model_hat, 4096, 1.0)
        assert r.stderr[-1] == pytest.approx(oracle, rel=0.02)


def _draw_theta(p, data, high, seed):
    """(q, beta, H, theta, rng) of a random CARFIMA(p, H, q) shape."""
    q = data.draw(st.integers(0, p - 1))
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-0.6, 0.6, q)
    if q:
        beta[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.8)
    H = rng.uniform(0.55, 0.95) if high else rng.uniform(0.05, 0.45)
    return q, beta, H, np.concatenate([rng.uniform(-1.5, 1.0, p), beta, [H]]), rng


def _central_differences(fn, theta, step=1e-6):
    return np.array([(fn(theta + step * e) - fn(theta - step * e)) / (2 * step)
                     for e in np.eye(len(theta))])


class TestProfiledObjective:
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(p=st.integers(1, 3), data=st.data(), high=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_and_value(self, p, data, high, seed):
        q, beta, H, theta, rng = _draw_theta(p, data, high, seed)
        pg = periodogram(_path(rng.standard_normal(256)))
        objective = _profiled(_AliasSum(pg.omegas, pg.step_h, 64), pg.values, p, q)
        value, grad = objective(theta)[:2]
        # central differences, tail bracket included
        fd = _central_differences(lambda t: objective(t)[0], theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)
        # one engine: the same value as whittle_objective after profiling
        quadratic, linear = _split(theta, p, q)[:2]
        shape = CarfimaModel(p=p, q=q, alpha=(0.0, *_alpha_coeffs(quadratic, linear)),
                             beta=tuple(beta), H=H, sigma=1.0)
        profiled = replace(shape, sigma=math.sqrt(profile_sigma2(pg, shape)))
        assert value == pytest.approx(whittle_objective(pg, profiled, K=64), rel=1e-12)
        # the factor-to-coefficient Jacobian that maps the standard errors
        jac = _alpha_jacobian(quadratic, linear)
        fd = _central_differences(lambda t: _alpha_coeffs(*_split(t, p, q)[:2]), theta)
        assert np.allclose(jac, fd[:p].T, rtol=1e-6, atol=1e-8)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(p=st.integers(1, 3), data=st.data(), high=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_at_default_K(self, p, data, high, seed):
        q, _, _, theta, rng = _draw_theta(p, data, high, seed)
        pg = periodogram(_path(rng.standard_normal(256)))
        objective = _profiled(_AliasSum(pg.omegas, pg.step_h, DEFAULT_ALIAS_K),
                              pg.values, p, q)
        grad = objective(theta)[1]
        fd = _central_differences(lambda t: objective(t)[0], theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_fast_root_tail_stays_in_bracket(self):
        # CAR(1) with alpha_1 = -1e6 at h = 1: the root lies far beyond the
        # first omitted alias (|W| = 104), the power-law series diverges far
        # below zero (r1 = -1e12), and the bracket's lower end sets the tail
        pg = periodogram(_path(np.random.default_rng(3).standard_normal(256)))
        alias = _AliasSum(pg.omegas, pg.step_h, DEFAULT_ALIAS_K)
        theta = np.array([math.log(1e6), 0.7])

        def log_f(t):
            return np.log(alias.evaluate(*_split(t, 1, 0))[0])

        f, tail_lo, tail_hi, dlog_f = alias.evaluate(*_split(theta, 1, 0), grad=True)
        ks = np.arange(-DEFAULT_ALIAS_K, DEFAULT_ALIAS_K + 1)
        m = CarfimaModel(p=1, q=0, alpha=(0.0, -1e6), beta=(), H=0.7, sigma=1.0)
        trunc = spectral_density(m, pg.omegas[:, None] + 2 * math.pi * ks).sum(axis=1)
        assert np.all(np.isfinite(f)) and np.all(f > 0)
        assert np.all(f - trunc >= tail_lo * (1 - 1e-9))
        assert np.all(f - trunc <= tail_hi * (1 + 1e-9))
        assert np.allclose(dlog_f, _central_differences(log_f, theta, 1e-5).T, rtol=1e-6)
        value, grad = _profiled(alias, pg.values, 1, 0)(theta)[:2]
        assert math.isfinite(value) and np.all(np.isfinite(grad))
